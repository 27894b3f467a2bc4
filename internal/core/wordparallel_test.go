package core

import (
	"testing"

	"continustreaming/internal/churn"
	"continustreaming/internal/metrics"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// TestCandidatesWordMatchesOracle differentially tests the word-parallel
// candidate enumeration (union algebra, the pending pre-pass and
// scheduler.FillCandidates' bit-sliced positional popcount) against
// candidatesForSlow, the window-agnostic per-ID oracle that shares
// no code with the word path. A churn-enabled world supplies realistic
// inputs round after round: partially filled buffers, dead neighbours,
// pending gossip and pre-fetch marks from earlier scheduling — every
// filter the fast path folds into word operations.
func TestCandidatesWordMatchesOracle(t *testing.T) {
	cfg := DefaultConfig(120)
	cfg.Profile = ProfileContinuStreaming()
	cfg.Churn = churn.DefaultConfig()
	cfg.Seed = 7
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	compared := 0
	for round := 0; round < cfg.PlaybackDelayRounds+8; round++ {
		engine.Run(1)
		w.round = engine.Clock().Round()
		var sample metrics.RoundSample
		snaps := w.exchangePhase(&sample)
		index := w.buildIndex()
		pos := w.playbackPos(w.round)
		fetchWin := segment.Window{Lo: pos, Hi: w.fetchEdge(w.round)}
		for _, id := range w.order {
			n := w.nodes[id]
			if n == nil || n.IsSource {
				continue
			}
			fast := w.candidatesFor(nil, n, index, snaps, fetchWin, w.round)
			slow := w.candidatesForSlow(n, index, snaps, fetchWin, w.round)
			if len(fast) != len(slow) {
				t.Fatalf("round %d node %d: fast enumerated %d candidates, oracle %d",
					w.round, id, len(fast), len(slow))
			}
			for i := range slow {
				f, s := fast[i], slow[i]
				if f.ID != s.ID {
					t.Fatalf("round %d node %d cand %d: ID %d vs oracle %d", w.round, id, i, f.ID, s.ID)
				}
				if len(f.Suppliers) != len(s.Suppliers) {
					t.Fatalf("round %d node %d seg %d: %d suppliers vs oracle %d",
						w.round, id, f.ID, len(f.Suppliers), len(s.Suppliers))
				}
				for j := range s.Suppliers {
					if f.Suppliers[j] != s.Suppliers[j] {
						t.Fatalf("round %d node %d seg %d supplier %d: %+v vs oracle %+v",
							w.round, id, f.ID, j, f.Suppliers[j], s.Suppliers[j])
					}
				}
				compared++
			}
		}
	}
	if compared == 0 {
		t.Fatal("no candidates were ever enumerated; the differential test exercised nothing")
	}
}
