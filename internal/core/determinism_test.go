package core

import (
	"reflect"
	"runtime"
	"testing"

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
	gen0a := w.buildNode(id, false).RNG.Uint64()
	gen0b := w.buildNode(id, false).RNG.Uint64()
	if gen0a != gen0b {
		t.Fatal("same generation must derive the same stream")
	}
	w.idGen[id]++
	reused := w.buildNode(id, false)
	if reused.Gen != 1 {
		t.Fatalf("reused node generation = %d, want 1", reused.Gen)
	}
	if reused.RNG.Uint64() == gen0a {
		t.Fatal("recycled slot replayed its predecessor's stream")
	}
}

// TestOutboundLedgerConsistent checks every node's uplink where the
// round's last charge has landed (the serve phase; the probe reads it as
// the apply phase opens). The per-class rules always hold: pushes spend at
// most O, a rescue reply is charged only while the ledger is under 2·O, so
// pushes and rescue replies together stay within 2·O, and grants spend at
// most 2·O less the pushes. Without pre-fetch (CoolStreaming) the whole
// spend stays within 2·O. With it, serve sizes grants by the push class
// alone and ignores the rescue replies charged before it, so in the
// ContinuStreaming churn world below (120 nodes, seed 42, 20 rounds) some
// node-rounds end above 2·O, and every one of them carries rescue spend.
// Direction 6a makes serve read Uplink.Spare, and that expectation flips.
func TestOutboundLedgerConsistent(t *testing.T) {
	for _, tc := range []struct {
		profile Profile
		overrun bool
	}{
		{ProfileCoolStreaming(), false},
		{ProfileContinuStreaming(), true},
	} {
		cfg := smallConfig(120, tc.profile)
		cfg.Churn = churn.DefaultConfig()
		var w *World
		over := 0
		cfg.PhaseProbe = func(phase string) {
			if phase != "apply" {
				return
			}
			for _, id := range w.Nodes() {
				n := w.Node(id)
				up, o := &n.up, n.Rates.Out
				if up.Pushed() > o || up.Pushed()+up.Rescued() > 2*o || up.Granted() > 2*o-up.Pushed() {
					t.Fatalf("%s round %d node %d: spent %d push, %d rescue, %d grant of O = %d",
						tc.profile.Name, w.round, id, up.Pushed(), up.Rescued(), up.Granted(), o)
				}
				if up.Used() > 2*o {
					over++
					if up.Rescued() == 0 {
						t.Fatalf("%s round %d node %d: spent %d of 2·O = %d with no rescue spend",
							tc.profile.Name, w.round, id, up.Used(), 2*o)
					}
				}
			}
		}
		var err error
		if w, err = NewWorld(cfg); err != nil {
			t.Fatal(err)
		}
		sim.NewEngine(w, cfg.Tau).Run(20)
		t.Logf("%s: %d node-rounds above 2·O", tc.profile.Name, over)
		if (over > 0) != tc.overrun {
			t.Fatalf("%s: %d node-rounds ended above 2·O, want overrun %v", tc.profile.Name, over, tc.overrun)
		}
	}
}
