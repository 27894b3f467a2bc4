package dht

import (
	"fmt"
	"hash/fnv"
	"testing"

	"continustreaming/internal/sim"
)

// BenchmarkRoute measures the allocation-free routing core on warm,
// converged tables at the paper's Figure 3 scale: 4096 alive nodes in an
// 8192-ID space, greedy walks between uniformly random origin/target
// pairs. The round pipeline's pre-fetch, rescue and repair paths call
// RouteTo thousands of times per round, so allocs/op is the headline
// metric — it must stay at zero.
func BenchmarkRoute(b *testing.B) {
	s := NewSpace(8192)
	net := buildNetwork(b, s, 4096, 1)
	ids := net.IDs()
	rng := sim.DeriveRNG(1, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := ids[rng.Intn(len(ids))]
		target := ID(rng.Intn(s.N()))
		net.RouteTo(from, target, nil)
	}
}

// TestRouteGolden pins the routing core's behaviour on the benchmark's
// network — 4096 alive nodes in an 8192-ID space, tables converged — by
// folding the hop count and outcome of 200 000 greedy walks between
// uniformly random origin/target pairs into one fingerprint: a routing
// change cannot pass as a performance win. One stream draws the IDs, fills
// the tables and picks the walks, so the value is a function of the seed
// alone. (TestRouteToAllocationFree holds the walk at zero allocations.)
func TestRouteGolden(t *testing.T) {
	const routes = 200000
	s := NewSpace(8192)
	rng := sim.DeriveRNG(1, 0xb0d7e)
	net := buildNetworkFrom(s, 4096, rng)
	ids := net.IDs()
	var totalHops, succeeded uint64
	for i := 0; i < routes; i++ {
		from := ids[rng.Intn(len(ids))]
		target := ID(rng.Intn(s.N()))
		r := net.RouteTo(from, target, nil)
		totalHops += uint64(r.Hops)
		if r.Success {
			succeeded++
		}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d\n", routes, totalHops, succeeded)
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "e21bdc3a49a4d9d3"; got != want {
		t.Errorf("Route: fingerprint %s, want %s (%d hops over %d walks, %d succeeded): greedy routing walks differently",
			got, want, totalHops, routes, succeeded)
	}
}
