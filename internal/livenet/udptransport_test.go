package livenet

import (
	"net/netip"
	"testing"
	"time"
)

// TestDelayQueueOrder pins the release order of shaped datagrams: by due
// time, equal due times in arrival order, and nothing before it is due.
func TestDelayQueueOrder(t *testing.T) {
	q := delayQueue{wake: make(chan struct{}, 1)}
	t0 := time.Now()
	dst := netip.MustParseAddrPort("127.0.0.1:9")
	dues := []time.Duration{30, 10, 10, 20, 10, 5, 30}
	for i, d := range dues {
		q.push(t0.Add(d*time.Millisecond), []byte{byte(i)}, dst)
	}
	if _, ok, wait := q.pop(t0); ok || wait != 5*time.Millisecond {
		t.Fatalf("pop before anything is due: ok=%v wait=%v, want a 5ms wait", ok, wait)
	}
	if f, ok, _ := q.pop(t0.Add(7 * time.Millisecond)); !ok || f.frame[0] != 5 {
		t.Fatalf("pop at 7ms: ok=%v frame=%v, want frame 5", ok, f.frame)
	}
	if _, ok, wait := q.pop(t0.Add(7 * time.Millisecond)); ok || wait != 3*time.Millisecond {
		t.Fatalf("second pop at 7ms: ok=%v wait=%v, want a 3ms wait", ok, wait)
	}
	var got []byte
	for {
		f, ok, wait := q.pop(t0.Add(time.Second))
		if !ok {
			if wait != 0 {
				t.Fatalf("empty queue reports a %v wait", wait)
			}
			break
		}
		got = append(got, f.frame[0])
	}
	if want := []byte{1, 2, 4, 3, 0, 6}; string(got) != string(want) {
		t.Fatalf("release order %v, want %v (by due time, ties in arrival order)", got, want)
	}
}

// TestAddressBook checks the address book's single form per address
// (IPv4-mapped IPv6 sources unmap), its refusal of self and negative IDs,
// and the maxBook bound that still refreshes known peers.
func TestAddressBook(t *testing.T) {
	tr, err := newUDPTransport("127.0.0.1:0", 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.learn(3, netip.MustParseAddrPort("[::ffff:127.0.0.1]:4000"))
	if e := tr.book[3]; e.text != "127.0.0.1:4000" || !e.addr.Addr().Is4() {
		t.Fatalf("mapped source stored as %+v, want the plain IPv4 form", e)
	}
	tr.learn(7, netip.MustParseAddrPort("127.0.0.1:4001"))
	tr.learn(-1, netip.MustParseAddrPort("127.0.0.1:4002"))
	tr.learn(5, netip.AddrPort{})
	if len(tr.book) != 1 {
		t.Fatalf("book holds %d entries after self, negative and invalid learns, want 1", len(tr.book))
	}
	if err := tr.Learn(4, "localhost:4003"); err != nil || !tr.book[4].addr.IsValid() {
		t.Fatalf("Learn with a host name: err=%v entry=%+v", err, tr.book[4])
	}
	for id := 100; len(tr.book) < maxBook; id++ {
		tr.learn(id, netip.MustParseAddrPort("127.0.0.1:5000"))
	}
	tr.learn(99999, netip.MustParseAddrPort("127.0.0.1:5001"))
	if _, ok := tr.book[99999]; ok {
		t.Fatal("a full book learned a new peer")
	}
	tr.learn(3, netip.MustParseAddrPort("127.0.0.1:4999"))
	if tr.book[3].text != "127.0.0.1:4999" {
		t.Fatalf("a full book did not refresh a known peer: %+v", tr.book[3])
	}
}
