package overlay

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"continustreaming/internal/dht"
	"continustreaming/internal/sim"
)

func space() dht.Space { return dht.NewSpace(1024) }

func TestNewPeerTable(t *testing.T) {
	levels := dht.NewTable(space(), 7)
	pt := NewPeerTable(7, 20, levels)
	if pt.Self() != 7 || len(pt.Neighbors()) != 0 {
		t.Fatalf("fresh table wrong: self=%d neighbours=%v", pt.Self(), pt.Neighbors())
	}
	if pt.DHT() != levels {
		t.Fatal("the Peer Table copied its DHT levels instead of sharing the table it was given")
	}
}

func TestNewPeerTablePanicsOnBadH(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("h=0 did not panic")
		}
	}()
	NewPeerTable(1, 0, dht.NewTable(space(), 1))
}

func TestAddRemoveNeighbors(t *testing.T) {
	pt := NewPeerTable(0, 20, dht.NewTable(space(), 0))
	pt.Hear(20, 5)
	for _, id := range []NodeID{30, 10, 20, 40} {
		if !pt.AddNeighborLink(id) {
			t.Fatalf("AddNeighborLink(%d) failed", id)
		}
	}
	if ids := pt.Neighbors(); !slices.Equal(ids, []NodeID{10, 20, 30, 40}) {
		t.Fatalf("neighbours not sorted: %v", ids)
	}
	if len(pt.OverheardNodes()) != 0 {
		t.Fatal("a connected neighbour lingers in the overheard list")
	}
	if pt.DHT().Filled() == 0 {
		t.Fatal("connecting did not refresh the DHT levels")
	}
	if pt.AddNeighborLink(20) {
		t.Fatal("duplicate add succeeded")
	}
	if pt.AddNeighborLink(0) {
		t.Fatal("self add succeeded")
	}
	if !pt.RemoveNeighbor(20) || pt.IsNeighbor(20) {
		t.Fatal("remove failed")
	}
	if pt.RemoveNeighbor(20) {
		t.Fatal("double remove succeeded")
	}
	if ids := pt.Neighbors(); !slices.Equal(ids, []NodeID{10, 30, 40}) {
		t.Fatalf("neighbours after remove: %v", ids)
	}
}

func TestHearMaintainsRecencyAndCapacity(t *testing.T) {
	pt := NewPeerTable(0, 3, dht.NewTable(space(), 0))
	pt.Hear(1, 10)
	pt.Hear(2, 20)
	pt.Hear(3, 30)
	pt.Hear(4, 40) // evicts oldest (1)
	list := pt.OverheardNodes()
	if len(list) != 3 {
		t.Fatalf("overheard size = %d", len(list))
	}
	if list[0].ID != 4 || list[2].ID != 2 {
		t.Fatalf("recency order wrong: %+v", list)
	}
	for _, o := range list {
		if o.ID == 1 {
			t.Fatal("oldest entry not evicted")
		}
	}
	// Re-hearing refreshes recency instead of duplicating.
	pt.Hear(2, 25)
	list = pt.OverheardNodes()
	if list[0].ID != 2 || list[0].Latency != 25 || len(list) != 3 {
		t.Fatalf("refresh wrong: %+v", list)
	}
}

func TestHearSelfAndNeighborsExcluded(t *testing.T) {
	pt := NewPeerTable(9, 5, dht.NewTable(space(), 9))
	pt.AddNeighborLink(5)
	pt.Hear(9, 10) // self
	pt.Hear(5, 10) // neighbour
	if len(pt.OverheardNodes()) != 0 {
		t.Fatal("self/neighbour entered overheard list")
	}
	// But hearing a non-neighbour still refreshes the DHT levels.
	pt.Hear(700, 10)
	if pt.DHT().Filled() == 0 {
		t.Fatal("Hear did not refresh DHT peers")
	}
}

func TestTakeAndForgetOverheard(t *testing.T) {
	pt := NewPeerTable(0, 5, dht.NewTable(space(), 0))
	pt.Hear(1, 10)
	pt.Hear(2, 20)
	o, ok := pt.TakeOverheard(1)
	if !ok || o.ID != 1 || len(pt.OverheardNodes()) != 1 {
		t.Fatal("take failed")
	}
	if _, ok := pt.TakeOverheard(1); ok {
		t.Fatal("double take succeeded")
	}
	pt.ForgetOverheard(2)
	if len(pt.OverheardNodes()) != 0 {
		t.Fatal("forget failed")
	}
	pt.ForgetOverheard(2) // idempotent
}

func TestCloneFrom(t *testing.T) {
	donor := NewPeerTable(50, 10, dht.NewTable(space(), 50))
	donor.AddNeighborLink(60)
	donor.AddNeighborLink(70)
	donor.Hear(80, 15)
	joiner := NewPeerTable(51, 10, dht.NewTable(space(), 51))
	joiner.CloneFrom(donor, func(id NodeID) sim.Time { return sim.Time(id) })
	heard := joiner.OverheardNodes()
	want := map[NodeID]bool{60: true, 70: true, 80: true, 50: true}
	if len(heard) != len(want) {
		t.Fatalf("clone heard %d nodes: %+v", len(heard), heard)
	}
	for _, o := range heard {
		if !want[o.ID] {
			t.Fatalf("unexpected overheard %d", o.ID)
		}
	}
	if joiner.IsNeighbor(60) {
		t.Fatal("clone copied TCP connections")
	}
	if joiner.DHT().Filled() == 0 {
		t.Fatal("clone did not seed DHT levels")
	}
}

func TestRendezvousAssignUnique(t *testing.T) {
	rp := NewRendezvous(dht.NewSpace(64))
	rng := sim.NewRNG(1)
	seen := map[NodeID]bool{}
	for i := 0; i < 64; i++ {
		id := rp.AssignID(rng)
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted space did not panic")
		}
	}()
	rp.AssignID(rng)
}

func TestRendezvousReleaseRecyclesIDs(t *testing.T) {
	rp := NewRendezvous(dht.NewSpace(16))
	rng := sim.NewRNG(1)
	for i := 0; i < 16; i++ {
		rp.AssignID(rng)
	}
	// Simulated churn: nodes die and fresh nodes take their slots. Without
	// recycling this loop exhausts the ring immediately.
	for i := 0; i < 100; i++ {
		rp.Release(NodeID(i % 16))
		got := rp.AssignID(rng)
		if got != NodeID(i%16) {
			t.Fatalf("iteration %d: assigned %d, only %d was free", i, got, i%16)
		}
	}
}

func TestRendezvousCandidatesClosest(t *testing.T) {
	rp := NewRendezvous(dht.NewSpace(64))
	for _, id := range []NodeID{10, 20, 30, 60} {
		rp.Register(id)
	}
	got := rp.Candidates(12, 2)
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("candidates = %v", got)
	}
	// Wrap-around distance: 60 is 12 away from 8 counter-clockwise? No:
	// |8-60| on ring of 64 is min(52, 12) = 12; 10 is 2 away; 20 is 12.
	got = rp.Candidates(8, 3)
	if got[0] != 10 {
		t.Fatalf("closest to 8 = %v", got)
	}
	if rp.Candidates(5, 0) != nil {
		t.Fatal("max=0 returned candidates")
	}
	// Excludes the asking ID itself.
	got = rp.Candidates(10, 10)
	for _, id := range got {
		if id == 10 {
			t.Fatal("candidate list includes the joiner")
		}
	}
}

// TestRendezvousCandidatesMatchesReferenceSort pins the two-ended ring
// walk against the straightforward specification — sort every known node
// by (min arc distance, ID) and truncate — across random memberships,
// query points (members and non-members) and list lengths, including
// max > membership and antipode-heavy rings where the walk's two ends
// meet mid-list.
func TestRendezvousCandidatesMatchesReferenceSort(t *testing.T) {
	rng := sim.NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		space := dht.NewSpace(64)
		rp := NewRendezvous(space)
		members := rng.Intn(20)
		for i := 0; i < members; i++ {
			rp.Register(NodeID(rng.Intn(space.N())))
		}
		id := NodeID(rng.Intn(space.N()))
		max := rng.Intn(25)
		got := rp.Candidates(id, max)

		type cand struct {
			id   NodeID
			dist int
		}
		var ref []cand
		for _, k := range rp.known {
			if k == id {
				continue
			}
			cw := space.Clockwise(dht.ID(id), dht.ID(k))
			d := cw
			if ccw := space.N() - cw; ccw < d {
				d = ccw
			}
			ref = append(ref, cand{id: k, dist: d})
		}
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].dist != ref[j].dist {
				return ref[i].dist < ref[j].dist
			}
			return ref[i].id < ref[j].id
		})
		if len(ref) > max {
			ref = ref[:max]
		}
		want := make([]NodeID, len(ref))
		for i, c := range ref {
			want[i] = c.id
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (id=%d max=%d known=%v): got %v, want %v", trial, id, max, rp.known, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (id=%d max=%d known=%v): got %v, want %v", trial, id, max, rp.known, got, want)
			}
		}
	}
}

func TestRendezvousRegisterFailure(t *testing.T) {
	rp := NewRendezvous(dht.NewSpace(64))
	rp.Register(5)
	rp.Register(5)
	if len(rp.known) != 1 {
		t.Fatal("duplicate register")
	}
	rp.ReportFailure(5)
	rp.ReportFailure(5)
	if len(rp.known) != 0 {
		t.Fatal("failure not removed")
	}
	if rp.String() == "" {
		t.Fatal("empty String")
	}
}

// Property: overheard list never exceeds H and never contains self.
func TestOverheardInvariantsQuick(t *testing.T) {
	f := func(events []uint16) bool {
		pt := NewPeerTable(0, 5, dht.NewTable(dht.NewSpace(256), 0))
		for _, e := range events {
			pt.Hear(NodeID(e%256), sim.Time(e%97)+1)
		}
		list := pt.OverheardNodes()
		if len(list) > 5 {
			return false
		}
		for _, o := range list {
			if o.ID == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
