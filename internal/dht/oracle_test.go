package dht

import (
	"reflect"
	"testing"

	"continustreaming/internal/sim"
)

// This file keeps the retired routing code as differential oracles: the
// level scans NextHop and Successor replaced, the sorted membership slice
// the bitmap and its rank directory replaced, and the evict-inline walk
// RouteTo replaced.

// nextHopScan is the retired NextHop: scan every level for the peer with
// the smallest clockwise distance to the target that improves on self.
func nextHopScan(t *Table, target ID) (ID, bool) {
	best := Vacant
	bestDist := t.space.Clockwise(t.self, target)
	for level := 1; level <= t.space.Levels(); level++ {
		p := t.Peer(level)
		if p == Vacant {
			continue
		}
		if d := t.space.Clockwise(p, target); d < bestDist {
			bestDist = d
			best = p
		}
	}
	return best, best != Vacant
}

// successorScan is the retired Successor: scan every level for the peer
// with the smallest clockwise distance from self.
func successorScan(t *Table) (ID, bool) {
	best := Vacant
	bestDist := t.space.N() + 1
	for level := 1; level <= t.space.Levels(); level++ {
		p := t.Peer(level)
		if p == Vacant {
			continue
		}
		if d := t.space.Clockwise(t.self, p); d < bestDist {
			bestDist = d
			best = p
		}
	}
	return best, best != Vacant
}

// sortedRef is the retired membership representation: the alive IDs as an
// ascending slice, edited one member at a time with a binary search and a
// memmove, and answering ownership, succession and uniform arc draws by
// index arithmetic.
type sortedRef []ID

// search returns the first index i with ids[i] >= key.
func (r sortedRef) search(key ID) int {
	lo, hi := 0, len(r)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (r *sortedRef) join(id ID) {
	if i := r.search(id); i == len(*r) || (*r)[i] != id {
		*r = append(*r, 0)
		copy((*r)[i+1:], (*r)[i:])
		(*r)[i] = id
	}
}

func (r *sortedRef) leave(id ID) {
	if i := r.search(id); i < len(*r) && (*r)[i] == id {
		*r = append((*r)[:i], (*r)[i+1:]...)
	}
}

func (r sortedRef) owner(key ID) (ID, bool) {
	if len(r) == 0 {
		return 0, false
	}
	i := r.search(key + 1)
	if i == 0 {
		return r[len(r)-1], true
	}
	return r[i-1], true
}

func (r sortedRef) successor(id ID) (ID, bool) {
	if len(r) == 0 || (len(r) == 1 && r[0] == id) {
		return 0, false
	}
	i := r.search(id + 1)
	if i == len(r) {
		i = 0
	}
	return r[i], true
}

// randomInArc is the retired draw: count the members of [lo, hi) — of
// [lo, N) and [0, hi) when the arc wraps — and index the k-th.
func (r sortedRef) randomInArc(space Space, lo, hi ID, rng *sim.RNG) (ID, bool) {
	if len(r) == 0 {
		return 0, false
	}
	if lo < hi {
		i, j := r.search(lo), r.search(hi)
		if j <= i {
			return 0, false
		}
		return r[i+rng.Intn(j-i)], true
	}
	i1, j1 := r.search(lo), r.search(ID(space.N()))
	i2, j2 := r.search(0), r.search(hi)
	total := (j1 - i1) + (j2 - i2)
	if total == 0 {
		return 0, false
	}
	k := rng.Intn(total)
	if k < j1-i1 {
		return r[i1+k], true
	}
	return r[i2+k-(j1-i1)], true
}

// routeEvictInline is the retired RouteTo: a hop to a dead peer evicts the
// entry on the spot and retries from the same node. It also returns how
// many entries it evicted.
func routeEvictInline(n *Network, from, target ID) (RouteOutcome, int) {
	var out RouteOutcome
	evicted := 0
	cur := from
	maxHops := 4*n.space.Levels() + 4
	for hops := 0; hops < maxHops; hops++ {
		t := n.Table(cur)
		if t == nil {
			break
		}
		next, ok := nextHopScan(t, target)
		for ok && !n.Alive(next) {
			t.Evict(next)
			evicted++
			next, ok = nextHopScan(t, target)
		}
		if !ok {
			break
		}
		cur = next
		out.Hops++
		if cur == target {
			break
		}
	}
	out.Final = cur
	owner, ok := sortedRef(n.IDs()).owner(target)
	out.Success = ok && owner == cur
	return out, evicted
}

// TestNextHopMatchesLevelScan drives the level-indexed NextHop against the
// scan on random tables with vacant levels, over every target of the ring
// — which covers target = self, target = a peer, target one short of a
// peer, and targets on both sides of the wrap for every self — and the
// lowest-level Successor against its scan on the same tables.
func TestNextHopMatchesLevelScan(t *testing.T) {
	rng := sim.DeriveRNG(11, 1)
	for _, size := range []int{2, 16, 256, 1024} {
		s := NewSpace(size)
		for trial := 0; trial < 40; trial++ {
			self := ID(rng.Intn(size))
			tb := NewTable(s, self)
			// Fill a random subset of levels, each from anywhere in its arc;
			// high selves put most arcs across the wrap.
			for level := 1; level <= s.Levels(); level++ {
				if rng.Intn(3) == 0 {
					continue
				}
				width := 1 << (level - 1)
				tb.Consider(s.Wrap(int(self) + width + rng.Intn(width)))
			}
			succ, succOK := tb.Successor()
			if want, wantOK := successorScan(tb); succ != want || succOK != wantOK {
				t.Fatalf("N=%d self=%d peers=%v: Successor=(%d,%v), scan=(%d,%v)",
					size, self, levelsOf(tb), succ, succOK, want, wantOK)
			}
			for target := ID(0); int(target) < size; target++ {
				got, gotOK := tb.NextHop(target)
				want, wantOK := nextHopScan(tb, target)
				if got != want || gotOK != wantOK {
					t.Fatalf("N=%d self=%d peers=%v target=%d: NextHop=(%d,%v), scan=(%d,%v)",
						size, self, levelsOf(tb), target, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// TestBitmapOwnershipMatchesSortedSearch churns a network and the sorted
// reference through the same random joins and leaves — starting empty,
// passing through single-member states, in a space small enough that the
// extremes of the ring are regularly the only members — and after every
// step checks the listed membership, every ID's aliveness and table, Owner
// and TrueSuccessor for every key, and, drawing from twin streams, the
// uniform pick from straight, wrapped, empty and whole-ring arcs.
func TestBitmapOwnershipMatchesSortedSearch(t *testing.T) {
	for _, size := range []int{2, 64, 256} { // one partial word, one full word, several
		s := NewSpace(size)
		net := NewNetwork(s)
		var ref sortedRef
		rng := sim.DeriveRNG(12, uint64(size))
		check := func(step int) {
			t.Helper()
			if got := net.IDs(); len(got) != len(ref) || len(ref) > 0 && !reflect.DeepEqual(got, []ID(ref)) {
				t.Fatalf("N=%d step %d: IDs %v, reference %v", size, step, got, ref)
			}
			if net.Size() != len(ref) {
				t.Fatalf("N=%d step %d: Size %d, reference holds %d", size, step, net.Size(), len(ref))
			}
			for key := ID(0); int(key) < size; key++ {
				i := ref.search(key)
				member := i < len(ref) && ref[i] == key
				if net.Alive(key) != member || (net.Table(key) != nil) != member {
					t.Fatalf("N=%d step %d members=%v: Alive(%d)=%v, table %v", size, step, ref, key, net.Alive(key), net.Table(key))
				}
				got, gotOK := net.Owner(key)
				want, wantOK := ref.owner(key)
				if got != want || gotOK != wantOK {
					t.Fatalf("N=%d step %d members=%v: Owner(%d)=(%d,%v), search=(%d,%v)",
						size, step, ref, key, got, gotOK, want, wantOK)
				}
				got, gotOK = net.TrueSuccessor(key)
				want, wantOK = ref.successor(key)
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("N=%d step %d members=%v: TrueSuccessor(%d)=(%d,%v), search=(%d,%v)",
						size, step, ref, key, got, gotOK, want, wantOK)
				}
			}
			seed := uint64(step)
			a, b := sim.DeriveRNG(seed, 1), sim.DeriveRNG(seed, 1)
			for draw := 0; draw < 40; draw++ {
				lo, hi := ID(rng.Intn(size)), ID(rng.Intn(size))
				got, gotOK := net.randomInArc(lo, hi, a)
				want, wantOK := ref.randomInArc(s, lo, hi, b)
				if got != want || gotOK != wantOK || a.Uint64() != b.Uint64() {
					t.Fatalf("N=%d step %d members=%v: randomInArc(%d,%d)=(%d,%v), reference (%d,%v), or the streams parted",
						size, step, ref, lo, hi, got, gotOK, want, wantOK)
				}
			}
		}
		check(0)
		for step := 1; step <= 300; step++ {
			// Lean toward leaving once populated so the membership keeps
			// returning to the empty and single-member states; one leave in
			// eight names a non-member, one join in many a member.
			if len(ref) > 0 && rng.Intn(5) < 3 {
				id := ref[rng.Intn(len(ref))]
				if rng.Intn(8) == 0 {
					id = ID(rng.Intn(size))
				}
				net.Leave(id)
				ref.leave(id)
			} else {
				id := ID(rng.Intn(size))
				net.Join(id, rng)
				ref.join(id)
			}
			check(step)
		}
	}
}

// levelsOf lists t's peer levels in order, Vacant included.
func levelsOf(t *Table) []ID {
	out := make([]ID, t.space.Levels())
	for i := range out {
		out[i] = t.Peer(i + 1)
	}
	return out
}

// tablesOf snapshots every member's peer levels.
func tablesOf(n *Network) map[ID][]ID {
	out := make(map[ID][]ID, n.Size())
	for _, id := range n.IDs() {
		out[id] = levelsOf(n.Table(id))
	}
	return out
}

// TestReadOnlyRouteMatchesEvictInline pins the exactness claim behind
// RouteTo stepping over dead entries. On twin churned networks, one runs
// the retired evict-inline walk and the other the read-only RouteTo:
// every route reports the same outcome although the second network's
// tables keep their dead entries throughout, and routing leaves those
// tables untouched.
func TestReadOnlyRouteMatchesEvictInline(t *testing.T) {
	s := NewSpace(1024)
	inline := churnedNetwork(t, s, 512, 7)
	readOnly := churnedNetwork(t, s, 512, 7)
	before := tablesOf(readOnly)
	rng := sim.DeriveRNG(7, 6)
	var sc RouteScratch
	evictions := 0
	for q := 0; q < 3000; q++ {
		from := inline.IDs()[rng.Intn(inline.Size())]
		target := ID(rng.Intn(s.N()))
		want, evicted := routeEvictInline(inline, from, target)
		evictions += evicted
		got := readOnly.RouteTo(from, target, &sc)
		if got != want {
			t.Fatalf("route %d (%d→%d): read-only %+v, evict-inline %+v", q, from, target, got, want)
		}
		if bare := readOnly.RouteTo(from, target, nil); bare != got {
			t.Fatalf("route %d: nil-scratch outcome %+v differs from %+v", q, bare, got)
		}
	}
	if evictions == 0 {
		t.Fatal("no walk met a dead entry; the test exercises nothing")
	}
	if !reflect.DeepEqual(tablesOf(readOnly), before) {
		t.Fatal("RouteTo modified a forwarding table")
	}
}

// TestRouteToConcurrentReaders routes from several goroutines at once over
// one churned network, each with its own scratch; under -race this is the
// check that a walk writes nothing shared.
func TestRouteToConcurrentReaders(t *testing.T) {
	s := NewSpace(1024)
	net := churnedNetwork(t, s, 512, 7)
	const workers = 4
	outs := make([][]RouteOutcome, workers)
	done := make(chan int, workers) // one send per worker
	for g := 0; g < workers; g++ {
		go func(g int) {
			rng := sim.DeriveRNG(7, 8) // same queries in every goroutine
			var sc RouteScratch
			for q := 0; q < 500; q++ {
				from := net.IDs()[rng.Intn(net.Size())]
				outs[g] = append(outs[g], net.RouteTo(from, ID(rng.Intn(s.N())), &sc))
			}
			done <- g
		}(g)
	}
	for g := 0; g < workers; g++ {
		<-done
	}
	for g := 1; g < workers; g++ {
		if !reflect.DeepEqual(outs[g], outs[0]) {
			t.Fatalf("goroutine %d routed differently from goroutine 0", g)
		}
	}
}
