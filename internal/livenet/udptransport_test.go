package livenet

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"testing"
	"time"

	"continustreaming/internal/segment"
)

// TestDelayQueueOrder pins the release order of shaped datagrams: by due
// time, equal due times in arrival order, and nothing before it is due.
func TestDelayQueueOrder(t *testing.T) {
	var q delayQueue
	t0 := time.Now()
	dst := netip.MustParseAddrPort("127.0.0.1:9")
	dues := []time.Duration{30, 10, 10, 20, 10, 5, 30}
	for i, d := range dues {
		q.push(t0.Add(d*time.Millisecond), []byte{byte(i)}, dst)
	}
	if _, ok := q.pop(t0); ok || !q.next().Equal(t0.Add(5*time.Millisecond)) {
		t.Fatalf("pop before anything is due: ok=%v next=%v, want the 5ms frame next", ok, q.next().Sub(t0))
	}
	if f, ok := q.pop(t0.Add(7 * time.Millisecond)); !ok || f.frame[0] != 5 {
		t.Fatalf("pop at 7ms: ok=%v frame=%v, want frame 5", ok, f.frame)
	}
	if _, ok := q.pop(t0.Add(7 * time.Millisecond)); ok || !q.next().Equal(t0.Add(10*time.Millisecond)) {
		t.Fatalf("second pop at 7ms: ok=%v next=%v, want the 10ms frames next", ok, q.next().Sub(t0))
	}
	var got []byte
	for {
		f, ok := q.pop(t0.Add(time.Second))
		if !ok {
			if !q.next().IsZero() {
				t.Fatalf("empty queue reports a frame due at %v", q.next())
			}
			break
		}
		got = append(got, f.frame[0])
	}
	if want := []byte{1, 2, 4, 3, 0, 6}; string(got) != string(want) {
		t.Fatalf("release order %v, want %v (by due time, ties in arrival order)", got, want)
	}
}

// TestShapedSendWaitsForRelease stamps a shaped transport's clock by hand:
// a delayed Send reaches the socket only once a stamp passes its due time,
// and the frames a stamp releases leave in (due, arrival) order. A twin
// shaper on the same seed replays the transport's draws to name each
// frame's delay.
func TestShapedSendWaitsForRelease(t *testing.T) {
	const self, to = 1, 2
	tr, rx := openUDP(t, self), openUDP(t, to)
	if err := tr.Learn(to, rx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	profile := ShapeProfile{Latency: 20 * time.Millisecond, Jitter: 15 * time.Millisecond}
	tr.shaper = NewShaper(profile, 5, self)
	twin := NewShaper(profile, 5, self)

	type held struct {
		seg segment.ID
		due time.Time
	}
	var want []held
	// Sends 100µs apart, all inside the least delay (5ms), so no stamp of
	// the sending loop releases anything. Any origin: the transport reads
	// no clock of its own.
	t0, at := time.Now(), time.Time{}
	for i := 0; i < 12; i++ {
		at = t0.Add(time.Duration(i) * 100 * time.Microsecond)
		tr.advance(at)
		m := Message{From: self, Kind: msgData, Seg: segment.ID(i)}
		frame, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		fate := twin.Shape(to, len(frame), at.Sub(t0))
		if !tr.Send(to, &m) {
			t.Fatalf("send %d failed", i)
		}
		tr.flush()
		want = append(want, held{m.Seg, at.Add(fate.Delay)})
	}
	slices.SortStableFunc(want, func(a, b held) int { return a.due.Compare(b.due) })
	for next := 0; next < len(want); at = at.Add(2 * time.Millisecond) {
		tr.advance(at)
		for ; next < len(want) && !want[next].due.After(at); next++ {
			if !rx.receive(time.Now().Add(10 * time.Second)) {
				t.Fatalf("segment %d, due by stamp %v, never arrived", want[next].seg, at.Sub(t0))
			}
			if rx.in.Seg != want[next].seg {
				t.Fatalf("stamp %v released segment %d, want %d", at.Sub(t0), rx.in.Seg, want[next].seg)
			}
		}
		if got := len(tr.delayed.heap); got != len(want)-next {
			t.Fatalf("stamp %v: %d frames held, want the %d not yet due", at.Sub(t0), got, len(want)-next)
		}
	}
	rx.AwaitQuiet(func(_ int, m *Message) { t.Fatalf("segment %d arrived twice", m.Seg) })
}

// hear hands tr a one-frame datagram from src stamped From id the way
// receive takes one, through the delivery path that learns from it. take
// drops a datagram stamped with the node's own ID or a negative one, so
// nothing of those is handed over.
func hear(t *testing.T, tr *udpTransport, id int, src netip.AddrPort) {
	t.Helper()
	// From is stamped at its fixed offset: the codec encodes no negative ID.
	d := chain(t, Message{Kind: msgBye})
	binary.LittleEndian.PutUint32(d[7:11], uint32(int32(id)))
	handed := 0
	tr.take(d, src)
	for tr.next() {
		tr.handOver(func(to int, m *Message) {
			if to != tr.self || m.From != id || m.GossipAddrs != nil {
				t.Fatalf("handed %+v to %d for a datagram from %d", m, to, id)
			}
			handed++
		})
	}
	want := 1
	if id < 0 || id == tr.self {
		want = 0
	}
	if handed != want {
		t.Fatalf("a datagram from %d was handed over %d times, want %d", id, handed, want)
	}
}

// awaitHandOver waits, a millisecond at a time on each of trs in turn,
// until one of them receives a datagram, and returns which one and what
// its delivery path handed the peer. The peer is never handed transport
// addresses, and nothing else may be queued behind the datagram.
func awaitHandOver(t *testing.T, what string, trs ...*udpTransport) (*udpTransport, Message) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		for _, tr := range trs {
			if !tr.receive(time.Now().Add(time.Millisecond)) {
				continue
			}
			var got []Message
			collect := func(_ int, m *Message) { got = append(got, *m) }
			tr.handOver(collect)
			tr.AwaitQuiet(collect)
			if len(got) > 1 {
				t.Fatalf("%s: %d datagrams handed over, want 1", what, len(got))
			}
			if got[0].GossipAddrs != nil {
				t.Fatalf("%s: the peer was handed transport addresses: %v", what, got[0].GossipAddrs)
			}
			return tr, got[0]
		}
	}
	t.Fatalf("%s never arrived", what)
	return nil, Message{}
}

// TestAddressBook checks the address book's single form per address
// (IPv4-mapped IPv6 sources unmap), its refusal of self, negative and
// off-ring IDs, and the maxBook bound that still refreshes known peers
// (a new address once the entry has gone silent, see
// TestAddressBookIgnoresSpoofedSource) — learning from datagram sources
// through the delivery path.
func TestAddressBook(t *testing.T) {
	tr, err := newUDPTransport("127.0.0.1:0", 7, testTTL)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	hear(t, tr, 3, netip.MustParseAddrPort("[::ffff:127.0.0.1]:4000"))
	if e := tr.book[3]; e.text != "127.0.0.1:4000" || !e.addr.Addr().Is4() {
		t.Fatalf("mapped source stored as %+v, want the plain IPv4 form", e)
	}
	hear(t, tr, 7, netip.MustParseAddrPort("127.0.0.1:4001"))
	hear(t, tr, -1, netip.MustParseAddrPort("127.0.0.1:4002"))
	hear(t, tr, ringSpace, netip.MustParseAddrPort("127.0.0.1:4002"))
	hear(t, tr, 5, netip.AddrPort{})
	if len(tr.book) != 1 {
		t.Fatalf("book holds %d entries after self, negative, off-ring and invalid learns, want 1", len(tr.book))
	}
	if err := tr.Learn(ringSpace, "127.0.0.1:4002"); err == nil {
		t.Fatal("Learn took an ID with no rescue-ring position")
	}
	if err := tr.Learn(4, "localhost:4003"); err != nil || !tr.book[4].addr.IsValid() {
		t.Fatalf("Learn with a host name: err=%v entry=%+v", err, tr.book[4])
	}
	for id := 100; len(tr.book) < maxBook; id++ {
		hear(t, tr, id, netip.MustParseAddrPort("127.0.0.1:5000"))
	}
	hear(t, tr, 9999, netip.MustParseAddrPort("127.0.0.1:5001"))
	if _, ok := tr.book[9999]; ok {
		t.Fatal("a full book learned a new peer")
	}
	tr.Members(0)
	tr.Members(1) // nothing heard of peer 3 since the sweep before: silent
	hear(t, tr, 3, netip.MustParseAddrPort("127.0.0.1:4999"))
	if tr.book[3].text != "127.0.0.1:4999" {
		t.Fatalf("a full book did not refresh a known peer: %+v", tr.book[3])
	}
}

// TestAddressBookLearnsOncePerDatagram: a datagram teaches its sender's
// address once, at its first frame handed over — take has checked that
// every frame names the same From. A sweep between two frames of one
// datagram leaves the entry unheard, and the next datagram marks it heard
// again; a datagram with no frame that decodes teaches nothing.
func TestAddressBookLearnsOncePerDatagram(t *testing.T) {
	const self, sender = 7, 3
	tr := openUDP(t, self)
	src := netip.MustParseAddrPort("127.0.0.1:4000")
	bye := Message{From: sender, Kind: msgBye}
	handOver := func(what string) {
		t.Helper()
		if !tr.next() {
			t.Fatalf("%s: no frame to hand over", what)
		}
		tr.handOver(func(int, *Message) {})
	}

	undecodable := chain(t, bye)
	undecodable[4] = wireVersion + 1
	tr.take(append(undecodable, undecodable...), src)
	if tr.next() {
		t.Fatal("a frame of the wrong version decoded")
	}
	if _, ok := tr.book[sender]; ok {
		t.Fatal("a datagram with no decodable frame taught its source")
	}

	tr.take(chain(t, bye, bye), src)
	handOver("the first frame")
	if e := tr.book[sender]; !e.heard || e.addr != src {
		t.Fatalf("the first frame handed over left the entry %+v, want it heard at %v", e, src)
	}
	tr.Members(1)
	handOver("the second frame")
	if tr.book[sender].heard {
		t.Fatal("the second frame of one datagram taught its source again")
	}
	if tr.next() {
		t.Fatal("a third frame in a datagram of two")
	}
	tr.take(chain(t, bye), src)
	handOver("the next datagram")
	if !tr.book[sender].heard {
		t.Fatal("the next datagram did not teach its source")
	}
}

// TestDelayedDatagramEndsTheWait: a shaped Send waits in the delay queue
// after the flush that opens the node's wait, and that wait ends at the
// datagram's due time however far the caller's own deadline is, so the
// stamp that follows writes it: the peer has the frame within the latency
// plus slack. A wait bounded before the flush would sleep to the caller's
// deadline with the datagram held.
func TestDelayedDatagramEndsTheWait(t *testing.T) {
	const self, to = 1, 2
	const latency, slack = 30 * time.Millisecond, time.Second
	tr, rx := openUDP(t, self), openUDP(t, to)
	if err := tr.Learn(to, rx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	tr.shaper = NewShaper(ShapeProfile{Latency: latency}, 1, self)
	sent := time.Now()
	tr.advance(sent)
	if !tr.Send(to, &Message{From: self, Kind: msgData, Seg: 7, Period: 1}) {
		t.Fatal("send failed")
	}
	if tr.receive(sent.Add(5 * time.Second)) {
		t.Fatal("the wait handed over a frame nobody sent")
	}
	woke := time.Now()
	if took := woke.Sub(sent); took < latency || took > latency+slack {
		t.Fatalf("the wait ended %v after the send, want at the datagram's due time, %v", took, latency)
	}
	tr.advance(woke)
	if !rx.receive(sent.Add(latency + slack)) {
		t.Fatalf("the peer did not have the frame %v after the send", latency+slack)
	}
	if rx.in.Seg != 7 {
		t.Fatalf("the peer received segment %d, want 7", rx.in.Seg)
	}
}

// testTTL is the address-book TTL the transport tests run on.
const testTTL = 9

// openUDP binds a loopback transport for peer id, closed when the test
// ends.
func openUDP(t testing.TB, id int) *udpTransport {
	t.Helper()
	tr, err := newUDPTransport("127.0.0.1:0", id, testTTL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestAddressBookIgnoresSpoofedSource pins the defence against spoofed
// sender IDs (ROADMAP 4 (ii)): a second socket sending datagrams stamped
// From a live peer's ID does not move that peer's book entry, so the node
// keeps reaching the real socket — while the peer was heard since the last
// sweep, and still after one sweep. Once the real peer has been silent for
// a whole sweep interval, the new source is taken as a rebind.
func TestAddressBookIgnoresSpoofedSource(t *testing.T) {
	const self, victim = 7, 3
	tr, real, spoofer := openUDP(t, self), openUDP(t, victim), openUDP(t, 9)
	for _, from := range []*udpTransport{real, spoofer} {
		if err := from.Learn(self, tr.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	// hearFrom sends a datagram stamped From the victim and waits until the
	// node's delivery path has handed it over (it learns before it hands).
	hearFrom := func(from *udpTransport, what string) {
		t.Helper()
		if !from.Send(self, &Message{From: victim, Kind: msgBye}) {
			t.Fatalf("%s: send failed", what)
		}
		from.flush()
		awaitHandOver(t, what, tr)
	}
	// reaches sends to the victim's ID and reports which socket got it.
	seq := segment.ID(0)
	reaches := func() *udpTransport {
		t.Helper()
		seq++
		if !tr.Send(victim, &Message{From: self, Kind: msgData, Seg: seq}) {
			t.Fatal("no address on file for the victim")
		}
		tr.flush()
		at, m := awaitHandOver(t, "the send to the victim", real, spoofer)
		if m.Seg != seq {
			t.Fatalf("segment %d arrived, want %d", m.Seg, seq)
		}
		return at
	}

	hearFrom(real, "the real peer's datagram")
	hearFrom(spoofer, "the spoofed datagram")
	if reaches() != real {
		t.Fatal("a spoofed datagram redirected a peer heard since the last sweep")
	}
	tr.Members(1)
	hearFrom(spoofer, "the spoofed datagram after a sweep")
	if reaches() != real {
		t.Fatal("a spoofed datagram redirected a peer heard in the interval before the last sweep")
	}
	tr.Members(2) // the real peer has said nothing since the sweep at period 1
	hearFrom(spoofer, "the rebind")
	if reaches() != spoofer {
		t.Fatal("a peer silent for a whole sweep interval was not rebound to its new source")
	}
}

// TestAddressBookHealsAfterFlood pins the book's recovery from a full
// table: a burst of fabricated (id, addr) gossip fills it and blinds the
// node to a real sender, and once the fabricated entries have gone unheard
// for more than the TTL they leave and the sender is learnable again.
func TestAddressBookHealsAfterFlood(t *testing.T) {
	tr, err := newUDPTransport("127.0.0.1:0", 7, testTTL)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for id := 100; id < 100+maxBook; id++ {
		tr.learn(id, netip.MustParseAddrPort("127.0.0.1:5000"))
	}
	sender := netip.MustParseAddrPort("127.0.0.1:5001")
	tr.learn(3, sender)
	if got := tr.Members(0); len(got) != maxBook+2 || slices.Contains(got, 3) {
		t.Fatalf("%d members after the flood (want the %d fabricated IDs, self and 0), real sender among them: %v",
			len(got), maxBook, slices.Contains(got, 3))
	}
	tr.learn(3, sender)
	if slices.Contains(tr.Members(testTTL), 3) {
		t.Fatal("a full book learned a new peer while the flood was inside its TTL")
	}
	if got := tr.Members(testTTL + 1); !slices.Equal(got, []int{0, 7}) {
		t.Fatalf("%d members one period past the TTL, want only 0 and self", len(got))
	}
	tr.learn(3, sender)
	if got := tr.Members(testTTL + 2); !slices.Equal(got, []int{0, 3, 7}) {
		t.Fatalf("members %v after the flood expired, want the real sender learned: [0 3 7]", got)
	}
}

// TestUDPMembersView pins what a socket node counts as a member: a peer
// that sent it a datagram and a peer gossip named with an address, not one
// gossip named without; both for TTL periods past the last word of them;
// itself and the bootstrap ID always; ascending.
func TestUDPMembersView(t *testing.T) {
	tr, err := newUDPTransport("127.0.0.1:0", 7, testTTL)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	from, err := newUDPTransport("127.0.0.1:0", 3, testTTL)
	if err != nil {
		t.Fatal(err)
	}
	defer from.Close()
	if got := tr.Members(4); !slices.Equal(got, []int{0, 7}) {
		t.Fatalf("members of a node that heard nothing: %v, want [0 7]", got)
	}
	// The sender can put an address to 21 and not to 22.
	for id, addr := range map[int]string{7: tr.LocalAddr(), 21: "127.0.0.1:4021"} {
		if err := from.Learn(id, addr); err != nil {
			t.Fatal(err)
		}
	}
	if !from.Send(7, &Message{From: 3, Kind: msgBye, Gossip: []int{21, 22}}) {
		t.Fatal("send failed")
	}
	from.flush()
	if _, m := awaitHandOver(t, "the datagram", tr); !slices.Equal(m.Gossip, []int{21, 22}) {
		t.Fatalf("the peer was handed gossip %v, want [21 22]", m.Gossip)
	}
	for _, now := range []int{5, 5 + testTTL} {
		if got := tr.Members(now); !slices.Equal(got, []int{0, 3, 7, 21}) {
			t.Fatalf("members at period %d: %v, want [0 3 7 21]", now, got)
		}
	}
	if got := tr.Members(5 + testTTL + 1); !slices.Equal(got, []int{0, 7}) {
		t.Fatalf("members one period past the TTL: %v, want [0 7]", got)
	}
	if tr.Send(21, &Message{From: 7, Kind: msgBye}) {
		t.Fatal("a send to an expired peer found an address")
	}
}
