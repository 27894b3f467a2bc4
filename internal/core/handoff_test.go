package core

import (
	"slices"
	"testing"

	"continustreaming/internal/churn"
	"continustreaming/internal/sim"
)

// TestServeHandsOverOnlyThisRoundsGrants pins the stale-delivery replay
// fix: a supplier shard with nothing to serve (at 100 nodes under churn,
// a shard whose only node left) must hand apply nothing, not last round's
// grants again. At the serve→apply boundary every grant comes from a
// supplier on its shard's worklist of this round, and none arrives before
// the round began — a replayed grant inflates DataBits, feeds the rate
// controller a negative transfer time and can land on a joiner that
// recycled the ring ID.
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
		cfg.PhaseProbe = func(phase string) {
			if phase != "apply" {
				return
			}
			now := engine.Clock().Now()
			for s := range w.arenas {
				ar := &w.arenas[s]
				for _, d := range ar.deliveries {
					grants++
					if _, served := slices.BinarySearch(ar.suppliers, d.from); !served {
						stale++
					}
					if d.at < now {
						early++
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
			t.Fatalf("seed %d: of %d grants handed to apply, %d come from a supplier that served nothing this round and %d arrive before their round began",
				seed, grants, stale, early)
		}
	}
}
