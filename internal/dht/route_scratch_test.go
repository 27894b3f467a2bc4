package dht

import (
	"reflect"
	"testing"

	"continustreaming/internal/sim"
)

// churnedNetwork builds a converged network and then kills a quarter of
// it without repair, so routing exercises the dead-next-hop eviction
// path as well as the clean greedy walk.
func churnedNetwork(t testing.TB, space Space, n int, seed uint64) *Network {
	t.Helper()
	net := buildNetwork(t, space, n, seed)
	rng := sim.DeriveRNG(seed, 2)
	for killed := 0; killed < n/4; {
		id := net.IDs()[rng.Intn(net.Size())]
		if net.Alive(id) {
			net.Leave(id)
			killed++
		}
	}
	return net
}

// TestRouteToRecordedPathMatchesOutcome pins what a recording scratch
// adds to a walk, across clean and churned walks: the path starts at the
// origin, ends at the outcome's final node and is one node longer than
// the hop count, and recording changes nothing about the outcome.
func TestRouteToRecordedPathMatchesOutcome(t *testing.T) {
	s := NewSpace(1024)
	net := churnedNetwork(t, s, 512, 7)
	rng := sim.DeriveRNG(7, 3)
	sc := RouteScratch{RecordPath: true}
	for q := 0; q < 2000; q++ {
		from := net.IDs()[rng.Intn(net.Size())]
		target := ID(rng.Intn(s.N()))
		bare := net.RouteTo(from, target, nil)
		got := net.RouteTo(from, target, &sc)
		if got != bare {
			t.Fatalf("RouteTo(%d→%d): recording outcome %+v, nil-scratch outcome %+v", from, target, got, bare)
		}
		if len(sc.Path) != got.Hops+1 || sc.Path[0] != from || sc.Path[got.Hops] != got.Final {
			t.Fatalf("RouteTo(%d→%d) = %+v, recorded path %v", from, target, got, sc.Path)
		}
	}
}

// TestRouteScratchReuseDeterministic pins the reuse contract the round
// pipeline depends on: the same seed and query sequence produce
// identical outcomes whether every route gets a fresh scratch or all of
// them interleave through one warm scratch, on identically built
// networks.
func TestRouteScratchReuseDeterministic(t *testing.T) {
	s := NewSpace(1024)
	run := func(shared bool) []RouteOutcome {
		net := churnedNetwork(t, s, 512, 7)
		rng := sim.DeriveRNG(7, 4)
		var sc RouteScratch
		sc.RecordPath = true
		var out []RouteOutcome
		for q := 0; q < 1500; q++ {
			from := net.IDs()[rng.Intn(net.Size())]
			target := ID(rng.Intn(s.N()))
			if shared {
				out = append(out, net.RouteTo(from, target, &sc))
			} else {
				fresh := RouteScratch{RecordPath: true}
				out = append(out, net.RouteTo(from, target, &fresh))
			}
		}
		return out
	}
	fresh, warm := run(false), run(true)
	if !reflect.DeepEqual(fresh, warm) {
		for i := range fresh {
			if fresh[i] != warm[i] {
				t.Fatalf("query %d: fresh scratch %+v, shared scratch %+v", i, fresh[i], warm[i])
			}
		}
	}
}

// TestRouteToAllocationFree pins the tentpole property: a warm scratch
// (and the nil-scratch fast path) routes without allocating.
func TestRouteToAllocationFree(t *testing.T) {
	s := NewSpace(1024)
	net := buildNetwork(t, s, 512, 7)
	rng := sim.DeriveRNG(7, 5)
	sc := RouteScratch{RecordPath: true}
	// Warm the path buffer past any realistic walk length.
	ids := net.IDs()
	net.RouteTo(ids[0], ID(s.N()-1), &sc)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"warm-scratch", func() {
			net.RouteTo(ids[rng.Intn(len(ids))], ID(rng.Intn(s.N())), &sc)
		}},
		{"nil-scratch", func() {
			net.RouteTo(ids[rng.Intn(len(ids))], ID(rng.Intn(s.N())), nil)
		}},
	} {
		if avg := testing.AllocsPerRun(200, tc.f); avg != 0 {
			t.Errorf("%s: %.1f allocs per route, want 0", tc.name, avg)
		}
	}
}
