package core

import (
	"reflect"
	"runtime"
	"testing"

	"continustreaming/internal/buffer"
	"continustreaming/internal/churn"
	"continustreaming/internal/metrics"
	"continustreaming/internal/sim"
)

// runSampled executes a churny ContinuStreaming world and returns every raw
// per-round sample — the strictest observable output: continuity, all
// traffic counters, drops, and lookup statistics.
func runSampled(t *testing.T, workers, nodes, rounds int) []metrics.RoundSample {
	t.Helper()
	cfg := smallConfig(nodes, ProfileContinuStreaming())
	cfg.Churn = churn.DefaultConfig()
	cfg.Workers = workers
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.NewEngine(w, cfg.Tau).Run(rounds)
	return w.Collector().Samples()
}

// TestStepDeterministicAcrossWorkerCounts pins the sharded pipeline's
// contract: for a fixed seed, World.Step produces bit-identical metric
// samples (and therefore an identical continuity track) no matter how many
// workers execute the parallel phases.
func TestStepDeterministicAcrossWorkerCounts(t *testing.T) {
	const nodes, rounds = 250, 12
	base := runSampled(t, 1, nodes, rounds)
	if len(base) != rounds {
		t.Fatalf("recorded %d samples, want %d", len(base), rounds)
	}
	counts := []int{4, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		got := runSampled(t, workers, nodes, rounds)
		if !reflect.DeepEqual(base, got) {
			for i := range base {
				if base[i] != got[i] {
					t.Fatalf("workers=%d diverges at round %d:\n 1 worker: %+v\n%d workers: %+v",
						workers, i, base[i], workers, got[i])
				}
			}
			t.Fatalf("workers=%d diverges from single-worker run", workers)
		}
	}
}

// TestChurnRecyclesRingIDs pins the fix for the paper-scale dynamic sweep
// crash: sustained churn mints a fresh ring ID for every joiner, so a run
// whose cumulative joins exceed the ID space must recycle dead nodes'
// slots instead of panicking with "ID space exhausted".
func TestChurnRecyclesRingIDs(t *testing.T) {
	cfg := smallConfig(100, ProfileCoolStreaming())
	cfg.SpaceSize = 256
	// 20% leave + 20% join per round mints ~600 IDs over 30 rounds —
	// more than double the ring — while the population stays near 100.
	cfg.Churn = churn.Config{LeaveFraction: 0.2, JoinFraction: 0.2, GracefulFraction: 0.5}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.NewEngine(w, cfg.Tau).Run(30)
	if got := w.Size(); got < 50 || got > 200 {
		t.Fatalf("population drifted to %d nodes", got)
	}
}

// TestRecycledIDDrawsFreshStreams checks the generation salt: a node
// built on a recycled ring slot must not replay its dead predecessor's
// random stream (which would pin each slot's bandwidth class for the whole
// run), while generation 0 keeps the original derivation untouched.
func TestRecycledIDDrawsFreshStreams(t *testing.T) {
	cfg := smallConfig(50, ProfileCoolStreaming())
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := w.Nodes()[1]
	gen0a := w.buildNode(new(Node), buffer.Track{}, id, false).RNG.Uint64()
	gen0b := w.buildNode(new(Node), buffer.Track{}, id, false).RNG.Uint64()
	if gen0a != gen0b {
		t.Fatal("same generation must derive the same stream")
	}
	w.idGen[id]++
	reused := w.buildNode(new(Node), buffer.Track{}, id, false)
	if reused.Gen != 1 {
		t.Fatalf("reused node generation = %d, want 1", reused.Gen)
	}
	if reused.RNG.Uint64() == gen0a {
		t.Fatal("recycled slot replayed its predecessor's stream")
	}
}

// TestOutboundLedgerConsistent runs the shapes the Scenario* constructors
// build — heterogeneous and homogeneous bandwidth, static and churning
// membership, for ContinuStreaming, and the scheduling-only and
// CoolStreaming profiles — at 120 nodes for 20 rounds, with checkNodeState
// after every round. Every serve sizes its grants by the supplier's
// Uplink.Spare, net of the pushes and rescue replies charged before it, so
// no node-round may end with its ledger past the 2·O horizon; the rows run
// at 4 workers, so the serve shards charge their suppliers concurrently.
func TestOutboundLedgerConsistent(t *testing.T) {
	for _, tc := range []struct {
		profile            Profile
		homogeneous, churn bool
	}{
		{ProfileContinuStreaming(), false, false},
		{ProfileContinuStreaming(), false, true},
		{ProfileContinuStreaming(), true, false},
		{ProfileContinuStreaming(), true, true},
		{ProfileSchedulingOnly(), false, true},
		{ProfileCoolStreaming(), false, false},
		{ProfileCoolStreaming(), false, true},
	} {
		cfg := smallConfig(120, tc.profile)
		cfg.Workers = 4
		cfg.Bandwidth.Homogeneous = tc.homogeneous
		if tc.churn {
			cfg.Churn = churn.DefaultConfig()
		}
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.NewEngine(w, cfg.Tau)
		for range 20 {
			engine.Run(1)
			checkNodeState(t, w)
		}
	}
}
