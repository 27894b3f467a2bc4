package core

import (
	"cmp"
	"slices"
	"testing"

	"continustreaming/internal/churn"
	"continustreaming/internal/overlay"
	"continustreaming/internal/sim"
)

// TestServeHandsOverOnlyThisRoundsGrants pins the stale-delivery replay
// fix: a supplier shard with nothing to serve (at 100 nodes under churn,
// a shard whose only node left) must hand apply nothing, not last round's
// grants again. At the serve→apply boundary every grant comes from a
// supplier its shard served this round — one with fresh asks or a carry
// queue when the serve phase began — and none arrives before the round
// began: a replayed grant inflates DataBits, feeds the rate controller a
// negative transfer time and can land on a joiner that recycled the ring
// ID.
//
// (to, from, id, at) itself is not unique across rounds: a grant that
// spills into the next period and a fresh grant of the same segment by
// the same supplier there can land in the same millisecond (seed 2,
// rounds 27 and 28), so the test checks provenance, not uniqueness.
func TestServeHandsOverOnlyThisRoundsGrants(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultConfig(100)
		cfg.Profile = ProfileContinuStreaming()
		cfg.Churn = churn.DefaultConfig()
		cfg.Seed = seed
		var w *World
		var engine *sim.Engine
		grants, stale, early := 0, 0, 0
		var served []bool // by ring ID: had work when the serve phase began
		cfg.PhaseProbe = func(phase string) {
			switch phase {
			case "serve":
				served = make([]bool, len(w.nodes))
				for _, id := range w.order {
					n := w.nodes[id]
					served[n.ID] = served[n.ID] || len(n.carry) > 0
					for _, req := range n.asks {
						served[req.Supplier] = true
					}
				}
			case "apply":
				now := engine.Clock().Now()
				for s := range w.arenas {
					for _, d := range filled(&w.arenas[s].deliverScatter) {
						grants++
						if !served[d.from] || w.shardOf(overlay.NodeID(d.from)) != s {
							stale++
						}
						if sim.Time(d.at) < now {
							early++
						}
					}
				}
			}
		}
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engine = sim.NewEngine(w, cfg.Tau)
		engine.Run(30)
		if grants == 0 {
			t.Fatalf("seed %d: no grant ever crossed the serve→apply boundary", seed)
		}
		if stale != 0 || early != 0 {
			t.Fatalf("seed %d: of %d grants handed to apply, %d come from a supplier its shard did not serve this round and %d arrive before their round began",
				seed, grants, stale, early)
		}
	}
}

// inFlight copies every shard's in-flight list.
func inFlight(w *World) [][]delivery {
	out := make([][]delivery, len(w.arenas))
	for s := range w.arenas {
		out[s] = slices.Clone(w.arenas[s].later)
	}
	return out
}

// TestDeliveryHandoffDeterministicAcrossWorkerCounts steps a churned
// 600-node world with the push phase on at Workers 1 and 4 side by side:
// after every round the shards' in-flight lists — entry for entry, in
// order — and the round sample must be identical. The lists are written
// by serve's neighbours in the pipeline (push, the pre-fetch claim stage,
// every apply shard, churn), so a hand-off that depended on which worker
// ran which shard would show here first. Both worlds also pass
// checkNodeState after every round.
func TestDeliveryHandoffDeterministicAcrossWorkerCounts(t *testing.T) {
	const rounds = 20
	build := func(workers int) (*World, *sim.Engine) {
		cfg := smallConfig(600, ProfileContinuStreaming())
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
	if w1.cfg.PushHops <= 0 {
		t.Fatal("the default configuration no longer pushes; the test must enable it")
	}
	spilled := 0
	for r := 0; r < rounds; r++ {
		e1.Run(1)
		e4.Run(1)
		checkNodeState(t, w1)
		checkNodeState(t, w4)
		if s1, s4 := w1.Collector().Samples()[r], w4.Collector().Samples()[r]; s1 != s4 {
			t.Fatalf("round %d sample diverges:\n 1 worker: %+v\n4 workers: %+v", r, s1, s4)
		}
		l1, l4 := inFlight(w1), inFlight(w4)
		for s := range l1 {
			if !slices.Equal(l1[s], l4[s]) {
				t.Fatalf("round %d shard %d: in-flight lists differ between 1 and 4 workers (%d vs %d entries)",
					r, s, len(l1[s]), len(l4[s]))
			}
			spilled += len(l1[s])
		}
	}
	if spilled == 0 {
		t.Fatal("no delivery ever crossed a round boundary; the comparison was vacuous")
	}
}

// compareReceiverArrival orders deliveries by receiver, then canonical
// arrival order: the key of the single sort the oracle below uses.
func compareReceiverArrival(a, b delivery) int {
	if a.to != b.to {
		return cmp.Compare(a.to, b.to)
	}
	return compareArrival(a, b)
}

// TestHandoffMatchesMergeSortOracle checks the shard-to-shard hand-off
// against the pipeline it replaced, kept here as the oracle: merge every
// serve shard's grants and everything in flight into one slice, split it
// at the round boundary, and sort the due part once by (receiver,
// arrival). At the apply boundary of every round of a churned world the
// production collect + group + per-run sort, run on a copy of the arenas,
// must hand out exactly the oracle's per-receiver runs and keep exactly
// the oracle's late set; and the world's own apply stage must leave the
// in-flight lists the copy predicted.
func TestHandoffMatchesMergeSortOracle(t *testing.T) {
	var engine *sim.Engine
	var predicted [][]delivery
	runs, late := 0, 0
	w, engine := churnWorld(t, func(w *World, phase string) {
		switch phase {
		case "apply":
			end := engine.Clock().RoundEnd()
			// The oracle: sequential merge, one partition, one sort.
			var due, spill []delivery
			for s := range w.arenas {
				merged := append(slices.Clone(w.arenas[s].later), filled(&w.arenas[s].deliverScatter)...)
				for _, d := range merged {
					if sim.Time(d.at) > end {
						spill = append(spill, d)
					} else {
						due = append(due, d)
					}
				}
			}
			slices.SortFunc(due, compareReceiverArrival)
			slices.SortFunc(spill, compareReceiverArrival)

			// Production code on a copy of what it reads.
			scratch := make([]roundArena, len(w.arenas))
			for s := range scratch {
				scratch[s].later = slices.Clone(w.arenas[s].later)
				scratch[s].deliverScatter = w.arenas[s].deliverScatter
				scratch[s].deliverScatter.recs = slices.Clone(w.arenas[s].deliverScatter.recs)
				scratch[s].groupCnt = make([]int32, w.shardSize[s])
			}
			var got, kept []delivery
			predicted = predicted[:0]
			for s := range scratch {
				receiverRuns(scratch, s, w.shardRank, end, func(run []delivery) {
					if rs := w.shardOf(overlay.NodeID(run[0].to)); rs != s {
						t.Fatalf("round %d: shard %d was handed receiver %d of shard %d", w.round, s, run[0].to, rs)
					}
					got = append(got, run...)
					runs++
				})
				kept = append(kept, scratch[s].later...)
				predicted = append(predicted, scratch[s].later)
			}
			// Shards hand out their receivers ascending but interleave
			// across shards; a stable sort by receiver alone restores the
			// oracle's global order without touching any run's inside.
			slices.SortStableFunc(got, func(a, b delivery) int { return cmp.Compare(a.to, b.to) })
			if !slices.Equal(got, due) {
				t.Fatalf("round %d: hand-off applies %d deliveries, oracle %d, or the per-receiver runs differ", w.round, len(got), len(due))
			}
			slices.SortFunc(kept, compareReceiverArrival)
			if !slices.Equal(kept, spill) {
				t.Fatalf("round %d: hand-off keeps %d deliveries in flight, oracle %d, or the sets differ", w.round, len(kept), len(spill))
			}
			late += len(spill)
		case "playback":
			for s, list := range inFlight(w) {
				if !slices.Equal(list, predicted[s]) {
					t.Fatalf("round %d shard %d: the apply stage left an in-flight list the copied hand-off did not predict", w.round, s)
				}
			}
		}
	})
	engine.Run(w.cfg.PlaybackDelayRounds + 12)
	if runs < 2000 || late == 0 {
		t.Fatalf("compared %d receiver runs and %d late deliveries; want thousands of runs and a non-empty late set", runs, late)
	}
}

// TestInFlightDeliveryNeverReachesRecycledSlot drives a ring so small
// that joiners reuse leavers' IDs inside the same churnPhase. A delivery
// in flight to a node that leaves must be dropped there, before any
// joiner can take the slot: after the phase no in-flight entry may be
// addressed to a vacant slot or to a node that joined this very round (it
// has asked nobody for anything yet). The same recycling is the hazard
// for node-owned serve state, so every round ends with checkNodeState.
func TestInFlightDeliveryNeverReachesRecycledSlot(t *testing.T) {
	cfg := smallConfig(100, ProfileContinuStreaming())
	cfg.SpaceSize = 256
	cfg.Churn = churn.Config{LeaveFraction: 0.2, JoinFraction: 0.2, GracefulFraction: 0.5}
	var w *World
	var before [][]delivery
	var genBefore []uint64
	orphaned, recycled := 0, 0
	cfg.PhaseProbe = func(phase string) {
		switch phase {
		case "churn":
			before = inFlight(w)
			genBefore = slices.Clone(w.idGen)
		case "dhtrepair":
			for _, list := range before {
				for _, d := range list {
					if w.idGen[d.to] == genBefore[d.to] {
						continue
					}
					orphaned++
					if w.nodes[d.to] != nil {
						recycled++
					}
				}
			}
			for s, list := range inFlight(w) {
				for _, d := range list {
					if n := w.nodes[d.to]; n == nil {
						t.Fatalf("round %d shard %d: %+v still in flight to a vacant slot", w.round, s, d)
					} else if n.JoinedRound == w.round {
						t.Fatalf("round %d shard %d: %+v, sent to generation %d of slot %d, is in flight to the joiner of generation %d",
							w.round, s, d, genBefore[d.to], d.to, n.Gen)
					}
				}
			}
		}
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	for r := 0; r < 30; r++ {
		engine.Run(1)
		checkNodeState(t, w)
	}
	if orphaned == 0 || recycled == 0 {
		t.Fatalf("%d in-flight deliveries lost their receiver and %d of those slots were reused in the same phase; the test needs both to happen",
			orphaned, recycled)
	}
}
