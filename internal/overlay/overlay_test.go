package overlay

import (
	"math"
	"slices"
	"sort"
	"strings"
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
	if len(pt.OverheardNodes(nil)) != 0 {
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

// TestReserveKeepsNeighbours checks Reserve: the links already made
// survive it in order, and links up to the reserved count allocate
// nothing.
func TestReserveKeepsNeighbours(t *testing.T) {
	pt := NewPeerTable(0, 20, dht.NewTable(space(), 0))
	pt.AddNeighborLink(5)
	pt.Reserve(11)
	if ids := pt.Neighbors(); !slices.Equal(ids, []NodeID{5}) || cap(ids) < 11 {
		t.Fatalf("after Reserve(11): neighbours %v, capacity %d", ids, cap(ids))
	}
	next := NodeID(6)
	// AllocsPerRun calls the function twice: ten links in all.
	if allocs := testing.AllocsPerRun(1, func() {
		for range 5 {
			pt.AddNeighborLink(next)
			next++
		}
	}); allocs != 0 {
		t.Fatalf("links into reserved room allocated %.0f times", allocs)
	}
	pt.Reserve(2) // never shrinks
	if ids := pt.Neighbors(); !slices.Equal(ids, []NodeID{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}) {
		t.Fatalf("neighbours %v", ids)
	}
}

func TestHearMaintainsRecencyAndCapacity(t *testing.T) {
	pt := NewPeerTable(0, 3, dht.NewTable(space(), 0))
	pt.Hear(1, 10)
	pt.Hear(2, 20)
	pt.Hear(3, 30)
	pt.Hear(4, 40) // evicts oldest (1)
	list := pt.OverheardNodes(nil)
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
	list = pt.OverheardNodes(nil)
	if list[0].ID != 2 || list[0].Latency != 25 || len(list) != 3 {
		t.Fatalf("refresh wrong: %+v", list)
	}
}

// TestOverheardNodesOrderIsTotal pins what lets OverheardNodes sort with
// any algorithm: after random hears, refreshes, evictions and removals no
// two entries share a Seq, the list comes back strictly newest first, it
// is written over the scratch it was given, and the table's own storage
// order is left alone.
func TestOverheardNodesOrderIsTotal(t *testing.T) {
	rng := sim.NewRNG(7)
	pt := NewPeerTable(0, 20, dht.NewTable(space(), 0))
	scratch := make([]Overheard, 0, 20)
	for step := 0; step < 2000; step++ {
		switch id := NodeID(1 + rng.Intn(60)); rng.Intn(6) {
		case 0:
			pt.ForgetOverheard(id)
		case 1:
			pt.TakeOverheard(id)
		default:
			pt.Hear(id, sim.Time(rng.Intn(100)))
		}
		raw := pt.OverheardRaw(nil)
		list := pt.OverheardNodes(scratch)
		if len(list) != len(raw) || len(list) > 0 && &list[0] != &scratch[:1][0] {
			t.Fatalf("step %d: %d entries for %d stored, or the scratch was not used", step, len(list), len(raw))
		}
		for i := 1; i < len(list); i++ {
			if list[i-1].Seq <= list[i].Seq {
				t.Fatalf("step %d: Seq %d before %d: not strictly newest first: %+v", step, list[i-1].Seq, list[i].Seq, list)
			}
		}
		if !slices.Equal(raw, pt.OverheardRaw(nil)) {
			t.Fatalf("step %d: listing reordered the table's storage", step)
		}
	}
}

// TestOverheardRowBounds pins the int32 narrowing of a stored overheard
// row: the largest latency comes back intact, OverheardRaw appends after
// what dst already holds, a latency or an ID past the bound panics with a
// message that names it instead of wrapping, and a lookup of such an ID
// finds nothing.
func TestOverheardRowBounds(t *testing.T) {
	pt := NewPeerTable(0, 4, dht.NewTable(space(), 0))
	pt.Hear(3, math.MaxInt32)
	pt.Hear(5, 0)
	prefix := Overheard{ID: 99}
	got := pt.OverheardRaw([]Overheard{prefix})
	want := []Overheard{prefix, {ID: 3, Latency: math.MaxInt32, Seq: 1}, {ID: 5, Latency: 0, Seq: 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("OverheardRaw = %+v, want %+v", got, want)
	}
	for _, tc := range []struct {
		name string
		id   NodeID
		lat  sim.Time
	}{
		{"latency past the bound", 6, math.MaxInt32 + 1},
		{"latency below the bound", 6, math.MinInt32 - 1},
		{"ID past the bound", math.MaxInt32 + 1, 10},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "int32 bound 2147483647") {
					t.Errorf("%s: panic %q, want one naming the int32 bound", tc.name, msg)
				}
			}()
			pt.Hear(tc.id, tc.lat)
		}()
	}
	// MaxInt32+3 wraps to MinInt32+2 in an int32.
	pt.Hear(math.MinInt32+2, 1)
	if _, ok := pt.TakeOverheard(math.MaxInt32 + 3); ok {
		t.Fatal("TakeOverheard matched an ID past the bound to the row its int32 wraps to")
	}
}

func TestHearSelfAndNeighborsExcluded(t *testing.T) {
	pt := NewPeerTable(9, 5, dht.NewTable(space(), 9))
	pt.AddNeighborLink(5)
	pt.Hear(9, 10) // self
	pt.Hear(5, 10) // neighbour
	if len(pt.OverheardNodes(nil)) != 0 {
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
	if !ok || o.ID != 1 || len(pt.OverheardNodes(nil)) != 1 {
		t.Fatal("take failed")
	}
	if _, ok := pt.TakeOverheard(1); ok {
		t.Fatal("double take succeeded")
	}
	pt.ForgetOverheard(2)
	if len(pt.OverheardNodes(nil)) != 0 {
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
	joiner.CloneFrom(donor, nil, func(id NodeID) sim.Time { return sim.Time(id) })
	heard := joiner.OverheardNodes(nil)
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
	got := rp.AppendCandidates(nil, 12, 2)
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("candidates = %v", got)
	}
	// Wrap-around distance: 60 is 12 away from 8 counter-clockwise? No:
	// |8-60| on ring of 64 is min(52, 12) = 12; 10 is 2 away; 20 is 12.
	got = rp.AppendCandidates(nil, 8, 3)
	if got[0] != 10 {
		t.Fatalf("closest to 8 = %v", got)
	}
	if rp.AppendCandidates(nil, 5, 0) != nil {
		t.Fatal("max=0 returned candidates")
	}
	// Excludes the asking ID itself.
	got = rp.AppendCandidates(nil, 10, 10)
	for _, id := range got {
		if id == 10 {
			t.Fatal("candidate list includes the joiner")
		}
	}
}

// TestRendezvousCandidatesMatchesReferenceSort pins the two-ended ring
// walk against the straightforward specification — sort every known node
// by (min arc distance, ID) and truncate — and the RP's bitmaps against a
// map each, across random registration, failure-report, assignment and
// release histories that pass through the empty and the single-member
// list, query points (members and non-members, both ends of the ring) and
// list lengths, including max > membership and antipode-heavy rings where
// the walk's two ends meet mid-list. AssignID draws from a twin stream
// beside a map-backed rejection loop: the bitmap must not move a draw.
func TestRendezvousCandidatesMatchesReferenceSort(t *testing.T) {
	rng := sim.NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		space := dht.NewSpace(64)
		rp := NewRendezvous(space)
		known, used := map[NodeID]bool{}, map[NodeID]bool{}
		draws, twin := sim.NewRNG(uint64(trial)), sim.NewRNG(uint64(trial))
		for step, steps := 0, rng.Intn(60); step < steps; step++ {
			id := NodeID(rng.Intn(space.N()))
			if rng.Intn(4) == 0 {
				id = NodeID(rng.Intn(2) * (space.N() - 1)) // the ring's two ends
			}
			switch rng.Intn(8) {
			case 0, 1, 2:
				rp.Register(id)
				known[id] = true
			case 3, 4:
				rp.ReportFailure(id)
				delete(known, id)
			case 5:
				rp.Release(id)
				delete(used, id)
			default:
				if len(used) == space.N() {
					continue
				}
				want := NodeID(twin.Intn(space.N()))
				for used[want] {
					want = NodeID(twin.Intn(space.N()))
				}
				used[want] = true
				if got := rp.AssignID(draws); got != want {
					t.Fatalf("trial %d step %d: AssignID %d, map-backed loop %d", trial, step, got, want)
				}
			}
			var listed []NodeID
			for _, k := range rp.known.AppendTo(nil) {
				listed = append(listed, NodeID(k))
			}
			if len(listed) != len(known) || rp.known.Len() != len(known) || rp.used.Len() != len(used) {
				t.Fatalf("trial %d step %d: RP lists %v (%d assigned), reference %v (%d)", trial, step, listed, rp.used.Len(), known, len(used))
			}

			id = NodeID(rng.Intn(space.N()))
			max := rng.Intn(25)
			got := rp.AppendCandidates(nil, id, max)

			type cand struct {
				id   NodeID
				dist int
			}
			var ref []cand
			for _, k := range listed {
				if !known[k] {
					t.Fatalf("trial %d step %d: RP lists %d, never registered or reported failed", trial, step, k)
				}
				if k == id {
					continue
				}
				cw := space.Clockwise(dht.ID(id), dht.ID(k))
				ref = append(ref, cand{id: k, dist: min(cw, space.N()-cw)})
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
				t.Fatalf("trial %d (id=%d max=%d known=%v): got %v, want %v", trial, id, max, listed, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (id=%d max=%d known=%v): got %v, want %v", trial, id, max, listed, got, want)
				}
			}
		}
	}
}

func TestRendezvousRegisterFailure(t *testing.T) {
	rp := NewRendezvous(dht.NewSpace(64))
	rp.Register(5)
	rp.Register(5)
	if rp.known.Len() != 1 {
		t.Fatal("duplicate register")
	}
	rp.ReportFailure(5)
	rp.ReportFailure(5)
	if rp.known.Len() != 0 {
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
		list := pt.OverheardNodes(nil)
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
