package livenet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// udpTransport carries Messages across process boundaries as one wire
// frame per UDP datagram. It keeps the in-process transport's drop model:
// Send never blocks and returns false when the message cannot be
// delivered — no address on file, or a socket that refuses the write
// (refused counts those). What arrives waits in the kernel's socket
// buffer until the node reads it, and a datagram that finds that buffer
// full is the network's loss. Loss recovery stays where the protocol puts
// it: retry, repair and rescue.
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
// queued), hands each datagram over, and owns the book, Send, the shaper
// and its delayed frames and Members, so none of it takes a lock; only
// Close may come from another goroutine. The transport reads no clock:
// that goroutine stamps it with the time of each wake-up (advance) and
// names the time receive may wait until.
type udpTransport struct {
	self   int
	conn   *net.UDPConn
	local  string // the bound address, rendered once
	closed atomic.Bool
	// refused counts the writes the socket refused while open.
	refused int64

	// buf is the read buffer; in and from are the datagram receive or
	// readQueued last decoded and the address it came from, which
	// handOver hands over. deadline is the read deadline the socket is
	// set to.
	buf      []byte
	in       Message
	from     netip.AddrPort
	deadline time.Time

	// shaper, when non-nil, injects WAN conditions on the egress path:
	// seeded per-link loss, latency/jitter, reorder and bandwidth caps
	// applied between encode and the socket write. Frames it holds back
	// wait in delayed until a stamp passes their due time. now is the
	// latest stamp and epoch the first, so the shaper's link clock (the
	// token buckets') is now − epoch.
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
// — the time the sends that follow are shaped at — and writes every
// delayed frame due by then, in (due, arrival) order.
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

// write puts one frame on the socket. A frame the socket refuses is a
// datagram the network lost — nobody is left to tell, and the protocol
// retries — and counts in refused unless the transport is closed.
func (t *udpTransport) write(frame []byte, dst netip.AddrPort) bool {
	if _, err := t.conn.WriteToUDPAddrPort(frame, dst); err != nil {
		if !t.closed.Load() {
			t.refused++
		}
		return false
	}
	return true
}

// LocalAddr returns the bound socket address ("ip:port").
func (t *udpTransport) LocalAddr() string { return t.local }

// receive blocks until a datagram arrives or the clock passes until,
// whichever comes first, and reports whether one arrived; handOver then
// hands it over. It also returns false once the socket is closed, by
// Close from any goroutine.
func (t *udpTransport) receive(until time.Time) bool {
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
		if t.take(t.buf[:n], src) {
			return true
		}
	}
}

// take decodes a datagram from src into the hand-over slot and reports
// whether handOver has a message. Malformed datagrams and ones stamped
// with the node's own ID are skipped: over UDP anyone can write to the
// socket, and the codec's strict bounds checks are the defence.
func (t *udpTransport) take(frame []byte, src netip.AddrPort) bool {
	m, err := DecodeMessage(frame)
	if err != nil || m.From == t.self {
		return false
	}
	t.in, t.from = m, src
	return true
}

// AwaitQuiet implements Transport: it hands over the datagrams queued at
// the socket when it is called, and no more, without waiting — datagrams
// in flight cannot be counted, and what arrives meanwhile waits for the
// next receive.
func (t *udpTransport) AwaitQuiet(deliver func(to int, m *Message)) {
	for t.readQueued() {
		t.handOver(deliver)
	}
}

// handOver learns the sender's address from the datagram's source and the
// gossiped (id, addr) pairs from the frame, then hands deliver the
// transport-clean message.
func (t *udpTransport) handOver(deliver func(to int, m *Message)) {
	m := &t.in
	t.learn(m.From, t.from)
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
	}
	e.heard = true
	t.book[id] = e
}

// Send encodes m and writes it as one datagram to the peer's known
// address. Gossip entries are annotated with the addresses on file so
// the receiver can reach the peers the gossip names. False means the
// message was dropped (unknown address, encode failure, a write the
// socket refused) — the same contract as the in-process transport.
func (t *udpTransport) Send(to int, m Message) bool {
	if t.closed.Load() {
		return false
	}
	dst, ok := t.book[to]
	var addrs []string
	if ok && len(m.Gossip) > 0 {
		addrs = make([]string, len(m.Gossip))
		for i, g := range m.Gossip {
			if e, ok := t.book[g]; ok {
				addrs[i] = e.text
			} else if g == t.self {
				addrs[i] = t.local
			}
		}
	}
	if !ok {
		return false
	}
	m.GossipAddrs = addrs
	frame, err := EncodeMessage(m)
	if err != nil {
		return false
	}
	if t.shaper != nil {
		fate := t.shaper.Shape(to, len(frame), t.now.Sub(t.epoch))
		if fate.Drop {
			// Link loss, not a send failure: the datagram left this host
			// and died in the network, so the sender reports success —
			// exactly the knowledge a real WAN sender has. Shaper.Dropped
			// keeps the count separable from transport drops.
			return true
		}
		if fate.Delay > 0 {
			// The frame is freshly allocated per Send, so the queue owns
			// it. Frames still queued at Close are discarded — the same
			// silence an in-flight datagram meets when its sender dies.
			t.delayed.push(t.now.Add(fate.Delay), frame, dst.addr)
			return true
		}
	}
	return t.write(frame, dst.addr)
}

// Close shuts the socket down: a receive waiting on it returns, and Send
// refuses. It is the one method safe to call from any goroutine.
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

// push queues a frame for release at due.
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

// pop removes and returns the earliest frame if it is due at now.
func (q *delayQueue) pop(now time.Time) (f delayedFrame, ok bool) {
	if len(q.heap) == 0 || q.heap[0].due.After(now) {
		return f, false
	}
	f = q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = delayedFrame{} // release the frame
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
