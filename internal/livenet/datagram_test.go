package livenet

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"continustreaming/internal/buffer"
	"continustreaming/internal/segment"
)

// datagramSrc is the source address the datagram tests hand take.
var datagramSrc = netip.MustParseAddrPort("127.0.0.1:9")

// chain packs ms into one datagram, the way flush sends a wake-up's frames
// to one peer.
func chain(t testing.TB, ms ...Message) []byte {
	t.Helper()
	var d []byte
	for _, m := range ms {
		var err error
		if d, err = AppendMessage(d, m); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// takeAll hands a transport for peer self the datagram the way receive
// takes one, and returns the frames it then hands over, in order.
func takeAll(self int, datagram []byte) []Message {
	tr := &udpTransport{self: self}
	tr.take(datagram, datagramSrc)
	var got []Message
	for tr.next() {
		got = append(got, tr.in)
	}
	return got
}

// TestDatagramPrefixChainMustFit: a datagram is handed over frame by frame
// only when its prefix chain ends exactly at its last byte; otherwise no
// frame of it is, not even the ones before the fault.
func TestDatagramPrefixChainMustFit(t *testing.T) {
	ms := []Message{
		{From: 3, Kind: msgData, Seg: 40, Hop: 1, Period: 7},
		{From: 3, Kind: msgRequest, Seg: 41, Deadline: 900, Period: 7},
		{From: 3, Kind: msgBye, Period: 7},
	}
	valid := chain(t, ms...)
	if got := takeAll(9, valid); !reflect.DeepEqual(got, ms) {
		t.Fatalf("a valid chain handed over %+v, want %+v", got, ms)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	second := len(chain(t, ms[0])) // offset of the second frame's prefix
	cases := map[string][]byte{
		"empty":          {},
		"trailing byte":  mutate(func(b []byte) []byte { return append(b, 0) }),
		"trailing frame": mutate(func(b []byte) []byte { return append(b, valid[:second-1]...) }),
		"last frame cut": mutate(func(b []byte) []byte { return b[:len(b)-1] }),
		"prefix one long": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[second:], binary.LittleEndian.Uint32(b[second:])+1)
			return b
		}),
		"prefix one short": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[second:], binary.LittleEndian.Uint32(b[second:])-1)
			return b
		}),
		"prefix under the header": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[second:], wireHeaderLen-1)
			return b
		}),
		"prefix past the end": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[second:], 1<<32-1)
			return b
		}),
	}
	for name, d := range cases {
		if got := takeAll(9, d); len(got) != 0 {
			t.Errorf("%s: %d frames handed over, want none", name, len(got))
		}
	}
}

// TestDatagramFramesShareSender: every frame of a datagram names one From,
// not the receiver's own, read at its fixed offset before anything is
// decoded — a datagram that mixes senders is skipped whole, even when the
// frame naming the other sender would not decode. A frame that does not
// decode in a datagram that passes is skipped alone.
func TestDatagramFramesShareSender(t *testing.T) {
	const self = 9
	from3 := Message{From: 3, Kind: msgData, Seg: 1, Period: 2}
	from4 := Message{From: 4, Kind: msgData, Seg: 2, Period: 2}
	badVersion := func(m Message) []byte {
		f := chain(t, m)
		f[4] = wireVersion + 1
		return f
	}
	cases := []struct {
		name     string
		datagram []byte
		want     []Message
	}{
		{"one sender", chain(t, from3, from3), []Message{from3, from3}},
		{"two senders", chain(t, from3, from4), nil},
		{"two senders, the first frame malformed", append(badVersion(from3), chain(t, from4)...), nil},
		{"two senders, the second frame malformed", append(chain(t, from4), badVersion(from3)...), nil},
		{"the receiver's own ID", chain(t, Message{From: self, Kind: msgBye}), nil},
		{"one sender, the first frame malformed", append(badVersion(from3), chain(t, from3)...), []Message{from3}},
	}
	for _, c := range cases {
		if got := takeAll(self, c.datagram); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: handed over %+v, want %+v", c.name, got, c.want)
		}
	}
}

// readDatagrams reads what the socket of rx holds, one datagram at a time
// as the wire carries them, until nothing more arrives within 100 ms.
func readDatagrams(t *testing.T, rx *udpTransport) [][]byte {
	t.Helper()
	var ds [][]byte
	for {
		rx.deadline = time.Now().Add(100 * time.Millisecond)
		if err := rx.conn.SetReadDeadline(rx.deadline); err != nil {
			t.Fatal(err)
		}
		n, _, err := rx.conn.ReadFromUDPAddrPort(rx.buf)
		if err != nil {
			return ds
		}
		ds = append(ds, append([]byte(nil), rx.buf[:n]...))
	}
}

// TestFlushPacksPerDestination pins what flush puts on the wire: the
// frames one wake-up sends a peer leave as one datagram in send order, two
// peers get a datagram each, a frame that would push a datagram past
// maxDatagram starts the next, a frame larger than it goes alone, and the
// shaper decides — and counts — one fate per datagram.
func TestFlushPacksPerDestination(t *testing.T) {
	tx, a, b := openUDP(t, 1), openUDP(t, 2), openUDP(t, 3)
	for _, rx := range []*udpTransport{a, b} {
		if err := tx.Learn(rx.self, rx.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	data := func(seg int) Message {
		return Message{From: 1, Kind: msgData, Seg: segment.ID(seg), Period: 4}
	}
	send := func(to int, ms ...Message) {
		t.Helper()
		for _, m := range ms {
			if !tx.Send(to, &m) {
				t.Fatalf("send to %d failed", to)
			}
		}
	}
	// frames splits the datagrams rx read and checks each against the cap.
	frames := func(ds [][]byte) [][]Message {
		t.Helper()
		var out [][]Message
		for _, d := range ds {
			got := takeAll(0, d)
			if len(d) > maxDatagram && len(got) > 1 {
				t.Fatalf("a %d-byte datagram of %d frames, past the %d-byte cap", len(d), len(got), maxDatagram)
			}
			out = append(out, got)
		}
		return out
	}

	req := Message{From: 1, Kind: msgRequest, Seg: 3, Deadline: 60, Period: 4}
	send(2, data(1))
	send(3, data(100))
	send(2, data(2), req)
	if len(tx.pending) != 2 || tx.pending[0].to != 2 || tx.pending[1].to != 3 {
		t.Fatalf("pending datagrams %+v, want one for peer 2, then one for peer 3", tx.pending)
	}
	tx.flush()
	if got := frames(readDatagrams(t, a)); !reflect.DeepEqual(got, [][]Message{{data(1), data(2), req}}) {
		t.Fatalf("peer 2 received %+v, want one datagram of its three frames in send order", got)
	}
	if got := frames(readDatagrams(t, b)); !reflect.DeepEqual(got, [][]Message{{data(100)}}) {
		t.Fatalf("peer 3 received %+v, want one datagram of its frame", got)
	}
	if tx.frames != 4 || tx.datagrams != 2 || len(tx.pending) != 0 || len(tx.free) != 2 {
		t.Fatalf("%d frames in %d datagrams, %d pending, %d free buffers; want 4 in 2, none pending, 2 free",
			tx.frames, tx.datagrams, len(tx.pending), len(tx.free))
	}

	// The cap: as many data frames as fit, then the next datagram.
	frameLen := len(chain(t, data(0)))
	fit := maxDatagram / frameLen
	var want []Message
	for i := 0; i < fit+4; i++ {
		want = append(want, data(i))
	}
	send(2, want...)
	tx.flush()
	if got := frames(readDatagrams(t, a)); !reflect.DeepEqual(got, [][]Message{want[:fit], want[fit:]}) {
		t.Fatalf("%d frames of %d bytes packed as %d datagrams, want %d frames then %d",
			len(want), frameLen, len(got), fit, 4)
	}

	// A frame larger than the cap goes alone.
	big := buffer.New(10000, 0)
	snap := big.Snapshot()
	huge := Message{From: 1, Kind: msgMap, Map: &snap, Period: 4}
	if size, _ := frameSize(huge); size <= maxDatagram {
		t.Fatalf("the oversized map frame is %d bytes, not past the cap", size)
	}
	send(2, data(1), huge, data(2))
	tx.flush()
	if got := frames(readDatagrams(t, a)); !reflect.DeepEqual(got, [][]Message{{data(1)}, {huge}, {data(2)}}) {
		t.Fatalf("received %d datagrams around an oversized frame, want it alone between the other two", len(got))
	}

	// The shaper decides once per datagram: seven frames to two peers are
	// two datagrams delayed, or two lost.
	for _, c := range []struct {
		profile ShapeProfile
		count   func(*Shaper) int64
	}{
		{ShapeProfile{Latency: time.Millisecond}, (*Shaper).Delayed},
		{ShapeProfile{Loss: 1}, (*Shaper).Dropped},
	} {
		tx.shaper = NewShaper(c.profile, 1, 1)
		send(2, data(1), data(2), data(3), data(4), data(5))
		send(3, data(6), data(7))
		tx.flush()
		if got := c.count(tx.shaper); got != 2 {
			t.Fatalf("profile %+v: the shaper counted %d datagrams, want 2", c.profile, got)
		}
	}
	if len(tx.delayed.heap) != 2 {
		t.Fatalf("%d datagrams held back, want the 2 the latency delayed", len(tx.delayed.heap))
	}
}

// TestDatagramForwardsLeaveAsOneDatagram: what the frames of one datagram
// set off leaves, a peer at a time, as one datagram once the node waits
// again. A hop-1 node takes the source's datagram of k pushes and forwards
// each frame to the same peer as it hands it over; that peer reads one
// datagram of the k forwards, in order.
func TestDatagramForwardsLeaveAsOneDatagram(t *testing.T) {
	const k = 6
	src, hop1, next := openUDP(t, 0), openUDP(t, 1), openUDP(t, 2)
	if err := src.Learn(1, hop1.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := hop1.Learn(2, next.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	var want []Message
	for i := range k {
		push := Message{From: 0, Kind: msgData, Seg: segment.ID(i), Hop: 2, Period: 3}
		if !src.Send(1, &push) {
			t.Fatal("send failed")
		}
		want = append(want, Message{From: 1, Kind: msgData, Seg: push.Seg, Hop: 1, Period: 3})
	}
	src.flush()
	forward := func(_ int, m *Message) {
		if !hop1.Send(2, &Message{From: 1, Kind: msgData, Seg: m.Seg, Hop: m.Hop - 1, Period: m.Period}) {
			t.Fatalf("forward of segment %d failed", m.Seg)
		}
	}
	far := time.Now().Add(10 * time.Second)
	for i := range k {
		if !hop1.receive(far) {
			t.Fatalf("push %d of %d never arrived", i+1, k)
		}
		hop1.handOver(forward)
	}
	if hop1.receive(time.Now().Add(20 * time.Millisecond)) {
		t.Fatalf("a frame past the %d in the datagram", k)
	}
	var got [][]Message
	for _, d := range readDatagrams(t, next) {
		got = append(got, takeAll(2, d))
	}
	if !reflect.DeepEqual(got, [][]Message{want}) {
		t.Fatalf("the peer received %d datagrams %+v, want one of the %d forwards", len(got), got, k)
	}
	if hop1.frames != k || hop1.datagrams != 1 {
		t.Fatalf("the hop-1 node sent %d frames in %d datagrams, want %d in 1", hop1.frames, hop1.datagrams, k)
	}
}

// TestSendFlushAllocations holds a socket node's egress to no allocation:
// a map announcement with gossip and a request, sent to a known peer and
// flushed, on a clean network and in a shaped steady state where each
// wake-up releases the datagram the last one held back.
func TestSendFlushAllocations(t *testing.T) {
	tx, rx := openUDP(t, 1), openUDP(t, 2)
	if err := tx.Learn(2, rx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := tx.Learn(5, "127.0.0.1:4005"); err != nil {
		t.Fatal(err)
	}
	b := buffer.New(600, 0)
	for s := segment.ID(0); s < 300; s += 3 {
		b.Insert(s)
	}
	snap := b.Snapshot()
	announce := Message{From: 1, Kind: msgMap, Map: &snap, Gossip: []int{5, 6}, Period: 3}
	request := Message{From: 1, Kind: msgRequest, Seg: 9, Deadline: 40, Period: 3}
	at := time.Now()
	wake := func() {
		at = at.Add(20 * time.Millisecond)
		tx.advance(at)
		if !tx.Send(2, &announce) || !tx.Send(2, &request) {
			t.Fatal("send failed")
		}
		tx.flush()
	}
	for _, shape := range []string{"", "loss=2%,latency=10ms,jitter=5ms"} {
		profile, err := ParseShapeProfile(shape)
		if err != nil {
			t.Fatal(err)
		}
		tx.shaper = NewShaper(profile, 1, 1)
		for i := 0; i < 10; i++ {
			wake() // the shaper's link, the heap and the free list
		}
		if allocs := testing.AllocsPerRun(200, wake); allocs != 0 {
			t.Errorf("shape %q: %.1f allocations per wake-up's Send+flush, want 0", shape, allocs)
		}
	}
}

// TestDatagramFramesHandedOverBeforeNextRead: the frames of a datagram
// live in the read buffer until they are handed over, so neither receive
// nor the drain behind AwaitQuiet may read the next datagram while one of
// them waits. Two datagrams of two frames each arrive; both hand-over
// paths deliver the four frames in order, each once.
func TestDatagramFramesHandedOverBeforeNextRead(t *testing.T) {
	tx, rx := openUDP(t, 1), openUDP(t, 2)
	if err := tx.Learn(2, rx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	for _, drain := range []string{"receive", "AwaitQuiet"} {
		for seg := segment.ID(1); seg <= 4; seg++ {
			if !tx.Send(2, &Message{From: 1, Kind: msgData, Seg: seg, Period: 1}) {
				t.Fatal("send failed")
			}
			if seg%2 == 0 {
				tx.flush()
			}
		}
		var got []segment.ID
		collect := func(_ int, m *Message) { got = append(got, m.Seg) }
		if drain == "receive" {
			for len(got) < 4 && rx.receive(time.Now().Add(time.Second)) {
				rx.handOver(collect)
			}
		} else {
			time.Sleep(50 * time.Millisecond) // both datagrams at the socket
			rx.AwaitQuiet(collect)
		}
		if want := []segment.ID{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s handed over segments %v, want %v", drain, got, want)
		}
	}
}
