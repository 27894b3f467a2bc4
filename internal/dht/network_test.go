package dht

import (
	"math"
	"testing"
	"testing/quick"

	"continustreaming/internal/sim"
)

// buildNetwork joins n distinct random IDs into a space-sized ring.
func buildNetwork(t testing.TB, space Space, n int, seed uint64) *Network {
	return buildNetworkFrom(space, n, sim.DeriveRNG(seed, 1))
}

// buildNetworkFrom is buildNetwork drawing from the caller's stream.
func buildNetworkFrom(space Space, n int, rng *sim.RNG) *Network {
	net := NewNetwork(space)
	joined := 0
	for joined < n {
		id := ID(rng.Intn(space.N()))
		if net.Join(id, rng) != nil {
			joined++
		}
	}
	// Second pass refreshes tables now that the whole population exists;
	// this mirrors a converged overlay after overhearing has run a while.
	for _, id := range net.IDs() {
		net.FillTable(net.Table(id), rng)
	}
	return net
}

func TestJoinLeaveMembership(t *testing.T) {
	s := NewSpace(64)
	net := NewNetwork(s)
	rng := sim.DeriveRNG(1, 2)
	if net.Size() != 0 {
		t.Fatal("fresh network not empty")
	}
	if _, ok := net.Owner(5); ok {
		t.Fatal("empty network has an owner")
	}
	net.Join(10, rng)
	net.Join(20, rng)
	net.Join(50, rng)
	if net.Join(20, rng) != nil {
		t.Fatal("duplicate join succeeded")
	}
	if net.Size() != 3 || !net.Alive(20) {
		t.Fatalf("size=%d", net.Size())
	}
	ids := net.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("IDs not sorted")
		}
	}
	net.Leave(20)
	net.Leave(20) // idempotent
	if net.Size() != 2 || net.Alive(20) {
		t.Fatal("leave failed")
	}
}

func TestOwnerArcSemantics(t *testing.T) {
	s := NewSpace(64)
	net := NewNetwork(s)
	rng := sim.DeriveRNG(3, 1)
	for _, id := range []ID{10, 20, 50} {
		net.Join(id, rng)
	}
	cases := []struct{ key, want ID }{
		{10, 10}, {15, 10}, {19, 10},
		{20, 20}, {49, 20},
		{50, 50}, {63, 50},
		{0, 50}, {9, 50}, // wrap: keys before the first node belong to the last
	}
	for _, c := range cases {
		got, ok := net.Owner(c.key)
		if !ok || got != c.want {
			t.Fatalf("Owner(%d) = %d,%v want %d", c.key, got, ok, c.want)
		}
	}
}

func TestTrueSuccessor(t *testing.T) {
	s := NewSpace(64)
	net := NewNetwork(s)
	rng := sim.DeriveRNG(4, 1)
	for _, id := range []ID{10, 20, 50} {
		net.Join(id, rng)
	}
	for _, c := range []struct{ from, want ID }{{10, 20}, {20, 50}, {50, 10}} {
		got, ok := net.TrueSuccessor(c.from)
		if !ok || got != c.want {
			t.Fatalf("TrueSuccessor(%d) = %d,%v", c.from, got, ok)
		}
	}
	solo := NewNetwork(s)
	solo.Join(5, rng)
	if _, ok := solo.TrueSuccessor(5); ok {
		t.Fatal("single node has a successor")
	}
}

func TestRouteReachesOwnerDenseRing(t *testing.T) {
	s := NewSpace(1024)
	net := buildNetwork(t, s, 512, 7)
	rng := sim.DeriveRNG(7, 99)
	fail := 0
	const queries = 2000
	maxHops := 0
	sc := RouteScratch{RecordPath: true}
	for q := 0; q < queries; q++ {
		from := net.IDs()[rng.Intn(net.Size())]
		target := ID(rng.Intn(s.N()))
		res := net.RouteTo(from, target, &sc)
		if !res.Success {
			fail++
			continue
		}
		owner, _ := net.Owner(target)
		if res.Final != owner {
			t.Fatalf("success but final %d != owner %d", res.Final, owner)
		}
		if res.Hops > maxHops {
			maxHops = res.Hops
		}
		if sc.Path[0] != from || len(sc.Path) != res.Hops+1 {
			t.Fatalf("path %v does not start at origin %d or disagrees with %d hops", sc.Path, from, res.Hops)
		}
	}
	if rate := 1 - float64(fail)/queries; rate < 0.9 {
		t.Fatalf("success rate %.3f too low on a half-full ring", rate)
	}
	// Appendix bound: log N / log(4/3) ≈ 2.41 log2 N = ~24 for N=1024.
	bound := int(math.Ceil(math.Log2(float64(s.N())) / math.Log2(4.0/3.0)))
	if maxHops > bound {
		t.Fatalf("observed %d hops, appendix bound %d", maxHops, bound)
	}
}

func TestRouteHopsScaleAsHalfLogN(t *testing.T) {
	// §4.1: "the average routing hops is very close to log n / 2".
	s := NewSpace(8192)
	net := buildNetwork(t, s, 4000, 11)
	rng := sim.DeriveRNG(11, 5)
	total, ok := 0, 0
	const queries = 3000
	for q := 0; q < queries; q++ {
		from := net.IDs()[rng.Intn(net.Size())]
		res := net.RouteTo(from, ID(rng.Intn(s.N())), nil)
		if res.Success {
			total += res.Hops
			ok++
		}
	}
	avg := float64(total) / float64(ok)
	expected := math.Log2(4000) / 2 // ≈ 5.98
	if math.Abs(avg-expected) > 2.0 {
		t.Fatalf("avg hops %.2f, expected near %.2f", avg, expected)
	}
}

func TestRouteToDeadOriginFails(t *testing.T) {
	s := NewSpace(64)
	net := buildNetwork(t, s, 8, 13)
	from := net.IDs()[0]
	net.Leave(from)
	res := net.RouteTo(from, 5, nil)
	if res.Success {
		t.Fatal("routing from a dead node succeeded")
	}
}

// TestRouteSkipsDeadPeers kills a third of the nodes without repairing
// anyone's tables: no walk may pass through a dead node, and some must
// still succeed.
func TestRouteSkipsDeadPeers(t *testing.T) {
	s := NewSpace(256)
	net := buildNetwork(t, s, 64, 17)
	rng := sim.DeriveRNG(17, 3)
	ids := append([]ID(nil), net.IDs()...)
	for i, id := range ids {
		if i%3 == 0 && net.Size() > 2 {
			net.Leave(id)
		}
	}
	succ := 0
	const queries = 500
	sc := RouteScratch{RecordPath: true}
	for q := 0; q < queries; q++ {
		from := net.IDs()[rng.Intn(net.Size())]
		res := net.RouteTo(from, ID(rng.Intn(s.N())), &sc)
		if res.Success {
			succ++
		}
		for _, hop := range sc.Path[1:] {
			if !net.Alive(hop) {
				t.Fatal("routed through a dead node")
			}
		}
	}
	if succ == 0 {
		t.Fatal("no query succeeded after churn")
	}
}

// Property: for arbitrary memberships, routing from any alive node stops at
// an alive node, never loops beyond the defensive bound, and on success the
// final node is the ground-truth owner.
func TestRoutePropertiesQuick(t *testing.T) {
	s := NewSpace(256)
	f := func(idsRaw []uint8, fromIdx, targetRaw uint8) bool {
		net := NewNetwork(s)
		rng := sim.DeriveRNG(uint64(len(idsRaw)), uint64(fromIdx))
		for _, raw := range idsRaw {
			net.Join(ID(raw), rng)
		}
		if net.Size() == 0 {
			return true
		}
		from := net.IDs()[int(fromIdx)%net.Size()]
		target := ID(targetRaw)
		res := net.RouteTo(from, target, nil)
		if !net.Alive(res.Final) {
			return false
		}
		if res.Hops > 4*s.Levels()+4 {
			return false
		}
		if res.Success {
			owner, ok := net.Owner(target)
			return ok && owner == res.Final
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
