package core

import (
	"reflect"
	"testing"

	"continustreaming/internal/churn"
	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/sim"
)

// TestMeshDegreeRecoversAfterMassChurn churns half the overlay away in a
// single stroke and requires the maintenance pipeline — membership
// gossip, overheard refill, eager DHT refill — to regrow the mesh to its
// target degree within a few rounds.
func TestMeshDegreeRecoversAfterMassChurn(t *testing.T) {
	cfg := smallConfig(300, ProfileContinuStreaming())
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	engine.Run(3)
	// Kill every second non-source node, no grace, no warning.
	victims := append([]overlay.NodeID(nil), w.Nodes()...)
	kill := false
	for _, id := range victims {
		if id == w.Source() {
			continue
		}
		if kill = !kill; kill {
			w.leave(id, false)
		}
	}
	w.rebuildOrder()
	const recoveryRounds = 6
	engine.Run(recoveryRounds)
	var degSum, minDeg, atTarget int
	minDeg = 1 << 30
	for _, id := range w.Nodes() {
		d := len(w.neighborsOf(id))
		degSum += d
		if d < minDeg {
			minDeg = d
		}
		if d >= cfg.M {
			atTarget++
		}
	}
	n := w.Size()
	if minDeg == 0 {
		t.Fatal("isolated node after recovery window")
	}
	if avg := float64(degSum) / float64(n); avg < float64(cfg.M)-1 {
		t.Fatalf("average degree %.2f below M-1 after %d rounds (M=%d)", avg, recoveryRounds, cfg.M)
	}
	if frac := float64(atTarget) / float64(n); frac < 0.8 {
		t.Fatalf("only %.0f%% of nodes regrew to the M target", frac*100)
	}
}

// TestDHTRepairKeepsLookupsAliveUnderChurn runs sustained heavy churn and
// requires the in-world repair phase to hold routed query success high —
// the property that keeps the pre-fetch continuity backstop alive.
func TestDHTRepairKeepsLookupsAliveUnderChurn(t *testing.T) {
	cfg := smallConfig(250, ProfileContinuStreaming())
	cfg.Churn = churn.Config{LeaveFraction: 0.05, JoinFraction: 0.05, GracefulFraction: 0.5}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.NewEngine(w, cfg.Tau).Run(15)
	net := w.DHTNetwork()
	rng := sim.DeriveRNG(99, 1)
	const queries = 400
	succ := 0
	for q := 0; q < queries; q++ {
		from := net.IDs()[rng.Intn(net.Size())]
		if res := net.RouteTo(from, dht.ID(rng.Intn(w.Space().N())), nil); res.Success {
			succ++
		}
	}
	if rate := float64(succ) / queries; rate < 0.9 {
		t.Fatalf("query success %.3f under churn with repair enabled, want >= 0.9", rate)
	}
}

// TestStepDeterministicAcrossWorkerCountsTraceChurn extends the sharded
// pipeline's determinism contract to the new phases under trace-driven
// churn: gossip scatter, rewire intents, DHT repair and the diurnal flash
// departure must all be bit-identical at any worker count.
func TestStepDeterministicAcrossWorkerCountsTraceChurn(t *testing.T) {
	const nodes, rounds = 250, 14
	run := func(workers int) []any {
		cfg := smallConfig(nodes, ProfileContinuStreaming())
		cfg.Churn = churn.DefaultConfig()
		cfg.Churn.Trace = churn.DiurnalTrace(rounds, 6, 0.02, 0.10, 7, 0.25)
		cfg.Workers = workers
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.NewEngine(w, cfg.Tau).Run(rounds)
		out := []any{append([]overlay.NodeID(nil), w.Nodes()...), w.Collector().Samples()}
		// The mesh itself must match, not just the metrics.
		for _, id := range w.Nodes() {
			out = append(out, w.neighborsOf(id))
		}
		return out
	}
	base := run(1)
	for _, workers := range []int{3, 8} {
		if got := run(workers); !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d diverges from single-worker run under trace churn", workers)
		}
	}
}

// TestJoinFallbackSkipsVacatedSlots pins ROADMAP direction 4's join
// invariant on its worst case: every RP candidate is stale, and the
// fallback draw over the round's opening order lands on a slot vacated
// this round. The joiner must still leave join wired to a live node.
func TestJoinFallbackSkipsVacatedSlots(t *testing.T) {
	w, err := NewWorld(smallConfig(60, ProfileContinuStreaming()))
	if err != nil {
		t.Fatal(err)
	}
	order := append([]overlay.NodeID(nil), w.order...)
	keep := order[len(order)/2]
	for _, id := range order {
		if id != keep {
			w.leave(id, false) // the source stays: leave refuses it
		}
	}
	// Abrupt leavers stay on the RP's list; taking the two live nodes off
	// it leaves the RP nothing but stale candidates to hand out.
	w.rp.ReportFailure(keep)
	w.rp.ReportFailure(w.source)
	before := *w.rng
	w.join()
	after := *w.rng

	// The fallback's Intn(len(order)) is join's last draw: find the stream
	// position it was taken from and what it drew there.
	drawn := -1
	for probe, i := before, 0; drawn < 0 && i < 1<<16; i++ {
		at := probe
		if x := at.Intn(len(order)); at == after {
			drawn = x
		}
		probe.Uint64()
	}
	if drawn < 0 {
		t.Fatal("the fallback draw was not join's last")
	}
	if c := order[drawn]; c == keep || c == w.source {
		t.Fatalf("the draw landed on live node %d; the test needs a vacated slot", c)
	}
	// The world is mid-churn: finish the round's spine as Step would, so
	// the DHT tables no longer name the leavers. checkNodeState then holds
	// the joiner (it joined in round 0, the world's round) to a neighbour,
	// and every neighbour to a live node.
	w.rebuildOrder()
	w.dhtRepairPhase()
	if len(w.order) != 3 {
		t.Fatalf("%d nodes alive after the join, want the source, node %d and the joiner", len(w.order), keep)
	}
	checkNodeState(t, w)
}
