package core

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"continustreaming/internal/churn"
	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/prefetch"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// ownedIDs lists the ring IDs ownership shard s holds in a space of n.
func ownedIDs(n, s int) []overlay.NodeID {
	var ids []overlay.NodeID
	for id := 0; id < n; id++ {
		if sim.ShardIndex(uint64(id), phaseShards) == s {
			ids = append(ids, overlay.NodeID(id))
		}
	}
	return ids
}

// TestReceiverRunsMatchFullSort checks the apply stage's collect, group
// and per-run sort against a whole-set comparison sort: with a shard's
// arrivals spread over its own in-flight list and every serve shard's
// grant list, concatenating the runs eachReceiverRun hands out must
// reproduce the due deliveries sorted by (receiver, timestamp, segment,
// sender, prefetch), and the in-flight list must come out holding exactly
// the late ones — on random sets dense with ties in every key, a single
// receiver, and no deliveries at all.
func TestReceiverRunsMatchFullSort(t *testing.T) {
	const spaceN, shard, end = 2048, 9, sim.Time(2)
	rank, size := shardRanks(spaceN)
	owned := ownedIDs(spaceN, shard)
	rng := sim.DeriveRNG(22, 1)
	arenas := make([]roundArena, phaseShards)
	arenas[shard].groupCnt = make([]int32, size[shard])
	for _, tc := range []struct {
		name                 string
		deliveries, receiver int
	}{
		{"random", 1200, len(owned)},
		{"heavy-ties", 1200, 4},
		{"one-receiver", 150, 1},
		{"empty", 0, 1},
	} {
		bySource := make([][]delivery, phaseShards)
		arenas[shard].later = arenas[shard].later[:0]
		var want, wantLate []delivery
		for i := 0; i < tc.deliveries; i++ {
			d := newDelivery(
				owned[rng.Intn(tc.receiver)],
				overlay.NodeID(rng.Intn(4)),
				segment.ID(rng.Intn(6)),
				sim.Time(rng.Intn(4)), // 3 is past the round's end
				rng.Intn(2) == 0,
			)
			// One source in five is the shard's own in-flight list.
			if r := rng.Intn(phaseShards * 5 / 4); r < phaseShards {
				bySource[r] = append(bySource[r], d)
			} else {
				arenas[shard].later = append(arenas[shard].later, d)
			}
			if sim.Time(d.at) > end {
				wantLate = append(wantLate, d)
			} else {
				want = append(want, d)
			}
		}
		handOff(arenas, func(r, d int) []delivery { return onlyTo(d, shard, bySource[r]) })
		byReceiverArrival := func(a, b delivery) int {
			return cmp.Or(
				cmp.Compare(a.to, b.to),
				cmp.Compare(a.at, b.at),
				cmp.Compare(a.id, b.id),
				cmp.Compare(a.from, b.from),
				btoi(b.prefetch)-btoi(a.prefetch),
			)
		}
		slices.SortFunc(want, byReceiverArrival)
		var got []delivery
		receiverRuns(arenas, shard, rank, end, func(run []delivery) {
			for _, d := range run[1:] {
				if d.to != run[0].to {
					t.Fatalf("%s: run mixes receivers %d and %d", tc.name, run[0].to, d.to)
				}
			}
			got = append(got, run...)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("%s: receiver runs differ from the full sort", tc.name)
		}
		gotLate := slices.Clone(arenas[shard].later)
		slices.SortFunc(gotLate, byReceiverArrival)
		slices.SortFunc(wantLate, byReceiverArrival)
		if !slices.Equal(gotLate, wantLate) {
			t.Fatalf("%s: %d deliveries left in flight, want the %d late ones", tc.name, len(gotLate), len(wantLate))
		}
		for k, c := range arenas[shard].groupCnt {
			if c != 0 {
				t.Fatalf("%s: count table slot %d left at %d", tc.name, k, c)
			}
		}
	}
}

// forwardingTables snapshots every member's dht.Network forwarding table.
func forwardingTables(w *World) map[dht.ID][]dht.ID {
	out := make(map[dht.ID][]dht.ID)
	for _, id := range w.dhtNet.IDs() {
		out[id] = w.dhtNet.Table(id).Peers()
	}
	return out
}

// TestPrefetchPipelineDeterministicAcrossWorkerCounts steps a 600-node
// world under churn at Workers 1 and 4 in lockstep. The route stage runs
// its walks in whatever order the pool schedules them, so beyond the
// samples the test compares the tables they read: every forwarding
// table, after every round. It also insists the run had lookups to route.
func TestPrefetchPipelineDeterministicAcrossWorkerCounts(t *testing.T) {
	const nodes, rounds = 600, 24
	build := func(workers int) (*World, *sim.Engine) {
		cfg := smallConfig(nodes, ProfileContinuStreaming())
		cfg.Churn = churn.DefaultConfig()
		cfg.Workers = workers
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w, sim.NewEngine(w, cfg.Tau)
	}
	w1, e1 := build(1)
	w4, e4 := build(4)
	var lookups int64
	for r := 0; r < rounds; r++ {
		e1.Run(1)
		e4.Run(1)
		s1, s4 := w1.Collector().Samples(), w4.Collector().Samples()
		if s1[r] != s4[r] {
			t.Fatalf("round %d samples diverge:\n1 worker:  %+v\n4 workers: %+v", r, s1[r], s4[r])
		}
		if !reflect.DeepEqual(forwardingTables(w1), forwardingTables(w4)) {
			t.Fatalf("round %d: forwarding tables diverge between 1 and 4 workers", r)
		}
		lookups += s1[r].LookupAttempts
	}
	if lookups == 0 {
		t.Fatal("run routed no lookup")
	}
}

// TestRouteStageAllocationFree pins both pre-fetch stages' steady state
// on a warmed static world: the plan lists, missed-ID arenas and walk
// arenas are grow-only, so a repeat of the predict and route stages costs
// the fixed price of their two sim.ForShards fan-outs (the capturing
// closures) and not one allocation more. Both stages only read the world,
// so re-running them is a faithful repeat. It also checks that every
// shard's plans line up with its work list: each node's plan is the one a
// direct Urgent Line call gives for that node.
func TestRouteStageAllocationFree(t *testing.T) {
	cfg := smallConfig(400, ProfileContinuStreaming())
	cfg.Workers = 1
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	engine.Run(cfg.PlaybackDelayRounds + 6)
	clock := engine.Clock()
	w.predictPhase(clock)
	pc := predictCtx{pos: w.playbackPos(w.round), p: cfg.Stream.Rate, now: clock.Now(), round: w.round}
	pc.ensure(w)
	routed := 0
	for s := range w.arenas {
		ar := &w.arenas[s]
		if len(ar.plans) != len(ar.nodes) {
			t.Fatalf("shard %d holds %d plans for %d work-list nodes", s, len(ar.plans), len(ar.nodes))
		}
		for k, id := range ar.nodes {
			n, got := w.nodes[id], ar.plans[k]
			var want prefetch.Decision
			if !n.IsSource && n.Alpha != nil && n.Started {
				pc.n = n
				want, _ = prefetch.PredictInto(nil, &n.Buf, pc.pos, n.Alpha.Value(), cfg.PrefetchLimit, pc.exclude)
			}
			if got.Triggered != want.Triggered || !slices.Equal(got.Missed, want.Missed) {
				t.Fatalf("shard %d node %d: plan %+v, the Urgent Line gives %+v", s, id, got, want)
			}
			if got.Triggered {
				routed += len(got.Missed)
			}
		}
	}
	if routed == 0 {
		t.Fatal("no node triggered a pre-fetch; the stages would route nothing")
	}
	w.routePrefetch() // sizes the arenas for exactly this load
	fanouts := testing.AllocsPerRun(20, func() {
		for range 2 {
			sim.ForShards(w.pool, phaseShards, func(r int) { _ = w.arenas[r].walks })
		}
	})
	stages := testing.AllocsPerRun(20, func() {
		w.predictPhase(clock)
		w.routePrefetch()
	})
	t.Logf("predict+route: %.0f allocs per run, two empty fan-outs %.0f", stages, fanouts)
	if stages > fanouts {
		t.Fatalf("predict and route stages allocate %.0f per run, two empty ForShards %.0f", stages, fanouts)
	}
}
