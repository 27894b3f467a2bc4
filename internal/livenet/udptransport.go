package livenet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// udpTransport carries Messages across process boundaries as wire frames
// packed into UDP datagrams: the frames a node sends a peer between two
// waits leave together, in send order, as few datagrams of at most
// maxDatagram bytes as hold them (a larger frame goes alone). It keeps
// the in-process transport's drop model: Send never blocks and returns
// false when the message cannot be delivered — no address on file, or a
// closed transport; a write the socket refuses at flush counts in
// refused. What arrives waits in the kernel's socket buffer until the
// node reads it, and a datagram that finds that buffer full is the
// network's loss. Loss recovery stays where the protocol puts it: retry,
// repair and rescue.
//
// The transport is also the socket path's membership table: an address
// book that learns peer addresses from the source address of every
// datagram a peer sends and from the (id, addr) pairs piggybacked on
// membership gossip, which it fills in on encode and strips on hand-over —
// peers keep talking in small integer IDs on both transports — and
// forgets a peer nothing has been heard of for ttl periods (Members).
//
// It has no goroutine of its own. The goroutine that runs the node's
// session reads the socket (receive, and AwaitQuiet for what is already
// queued), hands each frame over, and owns the book, Send and flush, the
// shaper and its delayed datagrams and Members, so none of it takes a
// lock; only Close may come from another goroutine. The transport reads
// no clock: that goroutine stamps it with the time of each wake-up
// (advance) and names the time receive may wait until; receive flushes
// what the node sent before it waits — once the datagram read last has
// no frame left — and waits no later than the earliest datagram the
// shaper holds back.
type udpTransport struct {
	self   int
	conn   *net.UDPConn
	local  string // the bound address, rendered once
	closed atomic.Bool
	// refused counts the writes the socket refused while open.
	refused int64

	// buf is the read buffer and rest the frames of the datagram in it
	// not yet handed over, all from one sender; in is the frame receive or
	// readQueued last decoded, which handOver hands over, and from the
	// address its datagram came from until the datagram's first hand-over
	// has learned it, invalid after. deadline is the read deadline the
	// socket is set to.
	buf      []byte
	rest     []byte
	in       Message
	from     netip.AddrPort
	deadline time.Time

	// pending holds the datagrams the Sends since the last wait built, in
	// first-send order, until flush; free holds datagram buffers for
	// reuse, and addrs is Send's scratch for gossip annotations.
	pending []datagram
	free    [][]byte
	addrs   []string
	// frames counts the frames Send packed, datagrams the datagrams flush
	// shaped and sent (link loss and delay included).
	frames, datagrams int64

	// shaper, when non-nil, injects WAN conditions on the egress path:
	// seeded per-link loss, latency/jitter, reorder and bandwidth caps
	// applied to each datagram between flush and the socket write.
	// Datagrams it holds back wait in delayed until a stamp passes their
	// due time. now is the latest stamp and epoch the first, so the
	// shaper's link clock (the token buckets') is now − epoch.
	shaper     *Shaper
	epoch, now time.Time
	delayed    delayQueue

	book map[int]bookEntry
	ttl  int
	// swept is the period of the latest Members call.
	swept int
}

// bookEntry is one peer's address on file, with the string form gossip
// annotations carry rendered once per change rather than once per send.
// heard marks an entry a datagram has reported since the last Members
// call, which turns the mark into seen, the period of that call: the
// hand-over knows no clock, so a joiner's handshake-time entries are
// stamped with the period the handshake synced it to. An entry is silent
// when it is neither heard nor seen at the latest call — nothing reported
// it since the sweep before that one — and only a silent entry's address
// can change (see learn).
type bookEntry struct {
	addr  netip.AddrPort
	text  string
	heard bool
	seen  int
}

// datagram is one datagram the node is building for peer to at dst: a
// chain of frames.
type datagram struct {
	to  int
	dst netip.AddrPort
	buf []byte
}

// maxDatagram caps the datagrams Send packs: the payload every IPv6 path
// carries without fragmentation. A frame that would push a datagram past
// it starts the next one, and a frame larger than it goes alone.
const maxDatagram = 1200

// newDatagramCap is the capacity a fresh datagram buffer starts at: a map
// announcement and a few small frames. A buffer a longer chain grows
// keeps its size on the free list, so the buffers a node cycles through
// settle at the sizes it sends, well under maxDatagram each.
const newDatagramCap = 256

// maxBook bounds the address book. Gossip arrives from an open socket,
// so the IDs it names are untrusted input; a full book stops learning
// new peers (existing entries still refresh) until Members has expired
// some, instead of growing without limit. Far above any loopback session,
// far below a memory problem.
const maxBook = 8192

// readBuffer is the socket receive buffer a transport asks for; the
// kernel may grant less. That buffer is the only queue between the
// network and the node's one goroutine, so it holds what arrives while
// the goroutine runs a phase or waits for a processor: a source hears a
// few hundred datagrams a period at the defaults.
const readBuffer = 1 << 20

// newUDPTransport binds listen ("host:port"; port 0 picks a free one);
// ttl is how many periods an unheard-of peer stays in the book.
func newUDPTransport(listen string, self, ttl int) (*udpTransport, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("livenet: listen address %q: %v", listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: bind %q: %v", listen, err)
	}
	// A refusal leaves the system's default buffer, which still works.
	_ = conn.SetReadBuffer(readBuffer)
	return &udpTransport{
		self:  self,
		conn:  conn,
		local: conn.LocalAddr().String(),
		buf:   make([]byte, maxFrame),
		book:  make(map[int]bookEntry),
		ttl:   ttl,
	}, nil
}

// advance stamps the transport with the owning goroutine's clock reading
// — the time the datagrams flushed next are shaped at — and writes every
// delayed datagram due by then, in (due, arrival) order.
func (t *udpTransport) advance(now time.Time) {
	if t.epoch.IsZero() {
		t.epoch = now
	}
	t.now = now
	for {
		f, ok := t.delayed.pop(now)
		if !ok {
			return
		}
		t.write(f.frame, f.dst)
	}
}

// write puts one datagram on the socket and returns its buffer to the
// free list. A datagram the socket refuses is one the network lost —
// nobody is left to tell, and the protocol retries — and counts in
// refused unless the transport is closed.
func (t *udpTransport) write(datagram []byte, dst netip.AddrPort) {
	if _, err := t.conn.WriteToUDPAddrPort(datagram, dst); err != nil && !t.closed.Load() {
		t.refused++
	}
	t.free = append(t.free, datagram[:0])
}

// LocalAddr returns the bound socket address ("ip:port").
func (t *udpTransport) LocalAddr() string { return t.local }

// receive decodes the next frame into the hand-over slot and reports
// whether there is one; handOver then hands it over. A frame left from
// the datagram read last comes first, at once. Otherwise the node is
// about to wait: receive flushes what it sent since the last wait, so
// everything the frames of one datagram set off leaves as one datagram a
// peer, and blocks until a datagram arrives or the clock passes until or
// the earliest delayed datagram's due time, whichever comes first — the
// flush may have just delayed one. It also returns false once the socket
// is closed, by Close from any goroutine.
func (t *udpTransport) receive(until time.Time) bool {
	if t.next() {
		return true
	}
	t.flush()
	return t.read(earliest(until, t.delayed.next()))
}

// read blocks until a datagram with a frame to hand over arrives, and
// decodes that frame into the hand-over slot, or until the clock passes
// until or the socket is closed, and reports false.
func (t *udpTransport) read(until time.Time) bool {
	if !until.Equal(t.deadline) {
		// Fails only on a closed socket, which the read reports.
		_ = t.conn.SetReadDeadline(until)
		t.deadline = until
	}
	for {
		n, src, err := t.conn.ReadFromUDPAddrPort(t.buf)
		if err != nil {
			if t.closed.Load() || errors.Is(err, os.ErrDeadlineExceeded) {
				return false
			}
			continue
		}
		t.take(t.buf[:n], src)
		if t.next() {
			return true
		}
	}
}

// take queues the frames of a datagram from src for hand-over, after one
// walk of its prefix chain that reads each frame's From at its fixed
// offset and decodes nothing. It skips the whole datagram when the chain
// does not end exactly at its last byte, when its frames name more than
// one From, or when that From is the node's own ID: over UDP anyone can
// write to the socket, and these checks and the codec's strict bounds
// checks are the defence.
func (t *udpTransport) take(datagram []byte, src netip.AddrPort) {
	from := -1
	for off := 0; off < len(datagram); {
		f := datagram[off:]
		if len(f) < 4+wireHeaderLen {
			return
		}
		n := binary.LittleEndian.Uint32(f)
		if n < wireHeaderLen || uint64(n) > uint64(len(f)-4) {
			return
		}
		// From sits after the prefix, the version, the kind and the flags.
		id := int(int32(binary.LittleEndian.Uint32(f[7:11])))
		if from >= 0 && id != from || id < 0 {
			return
		}
		from = id
		off += 4 + int(n)
	}
	if from < 0 || from == t.self {
		return
	}
	t.rest, t.from = datagram, src
}

// pop splits the next frame off the datagram take queued; the chain is
// already checked.
func (t *udpTransport) pop() []byte {
	n := 4 + int(binary.LittleEndian.Uint32(t.rest))
	f := t.rest[:n]
	t.rest = t.rest[n:]
	return f
}

// next decodes the next frame of the queued datagram into the hand-over
// slot and reports whether there was one. A frame the codec rejects is
// skipped.
func (t *udpTransport) next() bool {
	for len(t.rest) > 0 {
		if m, err := DecodeMessage(t.pop()); err == nil {
			t.in = m
			return true
		}
	}
	return false
}

// AwaitQuiet implements Transport: it hands over the frames queued at the
// socket when it is called, and no more, without waiting — datagrams in
// flight cannot be counted, and what arrives meanwhile waits for the next
// receive.
func (t *udpTransport) AwaitQuiet(deliver func(to int, m *Message)) {
	for t.readQueued() {
		t.handOver(deliver)
	}
}

// handOver learns the sender's address from the datagram's source — at
// its first frame handed over; take has checked that every frame names
// the same From — and the gossiped (id, addr) pairs from the frame, then
// hands deliver the transport-clean message.
func (t *udpTransport) handOver(deliver func(to int, m *Message)) {
	m := &t.in
	t.learn(m.From, t.from)
	t.from = netip.AddrPort{} // learn takes no invalid address
	for i, g := range m.Gossip {
		if m.GossipAddrs == nil || m.GossipAddrs[i] == "" {
			continue
		}
		if ap, err := netip.ParseAddrPort(m.GossipAddrs[i]); err == nil {
			t.learn(g, ap)
		}
	}
	m.GossipAddrs = nil
	deliver(t.self, m)
}

// Members implements Transport on the address book: the node itself, the
// bootstrap address (ID 0 — losing the source ends the session, not the
// membership) and every entry heard of within ttl periods of now. Older
// entries leave the book, which is what lets a full one learn again.
func (t *udpTransport) Members(now int) []int {
	t.swept = now
	ids := append(make([]int, 0, len(t.book)+2), t.self)
	if t.self != 0 {
		ids = append(ids, 0)
	}
	for id, e := range t.book {
		if e.heard {
			e.heard, e.seen = false, now
			t.book[id] = e
		}
		if id == 0 {
			continue // listed above, and never expires
		}
		if now-e.seen > t.ttl {
			delete(t.book, id)
		} else {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// Learn records a peer's address ("host:port") by the rule learn applies
// to what the network reports.
func (t *udpTransport) Learn(id int, addr string) error {
	if !onRing(id) || id == t.self {
		return fmt.Errorf("livenet: cannot learn address for peer %d", id)
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("livenet: peer %d address %q: %v", id, addr, err)
	}
	t.learn(id, ua.AddrPort())
	return nil
}

// learn is Learn for an address already in binary form: a datagram's
// source, or a parsed gossip annotation. An off-ring ID takes no book slot.
//
// Message.From is self-declared, so a different address replaces a known
// one only once the entry has gone silent (see bookEntry): otherwise one
// datagram stamped with a live peer's ID would redirect everything meant
// for that peer to its sender. A peer that genuinely rebinds is reached at
// its new socket after one sweep interval without word from the old one.
func (t *udpTransport) learn(id int, addr netip.AddrPort) {
	if !onRing(id) || id == t.self || !addr.IsValid() {
		return
	}
	// One form per address whatever socket family reported it: a
	// dual-stack socket shows IPv4 peers as IPv4-mapped IPv6.
	addr = netip.AddrPortFrom(addr.Addr().Unmap(), addr.Port())
	e, known := t.book[id]
	if !known && len(t.book) >= maxBook {
		return // full: no new peer until Members expires some
	}
	if e.addr != addr {
		if known && (e.heard || e.seen >= t.swept) {
			return // the entry is not silent: keep the address it was heard at
		}
		e.addr, e.text = addr, addr.String()
	} else if e.heard {
		return // heard at this address since the last sweep: nothing to write
	}
	e.heard = true
	t.book[id] = e
}

// Send encodes m onto the datagram the node is building for the peer's
// known address; flush sends it. Gossip entries are annotated with the
// addresses on file so the receiver can reach the peers the gossip
// names. False means the message was dropped (unknown address, encode
// failure, a closed transport) — the same contract as the in-process
// transport.
func (t *udpTransport) Send(to int, sent *Message) bool {
	if t.closed.Load() {
		return false
	}
	dst, ok := t.book[to]
	if !ok {
		return false
	}
	m := *sent // annotated below; the sender's message is not written
	m.GossipAddrs = nil
	if len(m.Gossip) > 0 {
		t.addrs = t.addrs[:0]
		for _, g := range m.Gossip {
			addr := ""
			if e, ok := t.book[g]; ok {
				addr = e.text
			} else if g == t.self {
				addr = t.local
			}
			t.addrs = append(t.addrs, addr)
		}
		m.GossipAddrs = t.addrs
	}
	size, err := frameSize(m)
	if err != nil {
		return false
	}
	d := t.datagramFor(to, dst.addr, size)
	d.buf = appendFrame(slices.Grow(d.buf, size), m, size)
	t.frames++
	return true
}

// datagramFor returns the pending datagram for peer to that has room for
// a size-byte frame: the latest one built for it since the last wait, or
// a new one on a buffer from the free list.
func (t *udpTransport) datagramFor(to int, dst netip.AddrPort, size int) *datagram {
	for i := len(t.pending) - 1; i >= 0; i-- {
		if d := &t.pending[i]; d.to == to {
			if len(d.buf)+size <= maxDatagram {
				return d
			}
			break
		}
	}
	var buf []byte
	if n := len(t.free); n > 0 {
		buf, t.free = t.free[n-1], t.free[:n-1]
	} else {
		buf = make([]byte, 0, newDatagramCap)
	}
	t.pending = append(t.pending, datagram{to: to, dst: dst, buf: buf})
	return &t.pending[len(t.pending)-1]
}

// flush sends the datagrams built since the last wait, in first-send
// order. The shaper, when set, decides each one's fate once at the latest
// stamp: a lost datagram loses every frame in it, as on a real link.
func (t *udpTransport) flush() {
	for i := range t.pending {
		d := &t.pending[i]
		if t.closed.Load() {
			t.free = append(t.free, d.buf[:0])
			continue
		}
		t.datagrams++
		fate := t.shaper.Shape(d.to, len(d.buf), t.now.Sub(t.epoch))
		switch {
		case fate.Drop:
			// Link loss, not a send failure: the datagram left this host
			// and died in the network, as Send reported — exactly the
			// knowledge a real WAN sender has. Shaper.Dropped keeps the
			// count separable from transport drops.
			t.free = append(t.free, d.buf[:0])
		case fate.Delay > 0:
			// Datagrams still queued at Close are discarded — the same
			// silence an in-flight datagram meets when its sender dies.
			t.delayed.push(t.now.Add(fate.Delay), d.buf, d.dst)
		default:
			t.write(d.buf, d.dst)
		}
	}
	clear(t.pending)
	t.pending = t.pending[:0]
}

// Close shuts the socket down: a receive waiting on it returns, Send
// refuses and flush discards. It is the one method safe to call from any
// goroutine.
func (t *udpTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	return t.conn.Close()
}

// delayedFrame is one datagram the shaper is holding back.
type delayedFrame struct {
	due   time.Time
	seq   uint64 // arrival order: equal due times leave FIFO
	frame []byte
	dst   netip.AddrPort
}

func (a *delayedFrame) before(b *delayedFrame) bool {
	return a.due.Before(b.due) || a.due.Equal(b.due) && a.seq < b.seq
}

// delayQueue holds shaped datagrams until their due times: one binary
// min-heap ordered by (due, arrival). It has no goroutine and no timer of
// its own: the session goroutine that pushes is the one that pops, and its
// socket read waits until next at the latest.
type delayQueue struct {
	heap []delayedFrame
	seq  uint64
}

// push queues a datagram for release at due.
func (q *delayQueue) push(due time.Time, frame []byte, dst netip.AddrPort) {
	q.seq++
	q.heap = append(q.heap, delayedFrame{due: due, seq: q.seq, frame: frame, dst: dst})
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heap[i].before(&q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

// next returns the earliest due time, zero when the queue is empty.
func (q *delayQueue) next() time.Time {
	if len(q.heap) == 0 {
		return time.Time{}
	}
	return q.heap[0].due
}

// pop removes and returns the earliest datagram if it is due at now.
func (q *delayQueue) pop(now time.Time) (f delayedFrame, ok bool) {
	if len(q.heap) == 0 || q.heap[0].due.After(now) {
		return f, false
	}
	f = q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = delayedFrame{} // release the buffer
	q.heap = q.heap[:last]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if q.heap[c].before(&q.heap[least]) {
				least = c
			}
		}
		if least == i {
			break
		}
		q.heap[i], q.heap[least] = q.heap[least], q.heap[i]
		i = least
	}
	return f, true
}
