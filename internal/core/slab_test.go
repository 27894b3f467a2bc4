package core

import (
	"testing"

	"continustreaming/internal/churn"
	"continustreaming/internal/overlay"
	"continustreaming/internal/sim"
)

// TestNodeSlabsFollowShards checks where nodes live. Right after
// construction each shard's first chunk holds the nodes of its work list,
// in order. Then, over 20 rounds of a 2 000-node churn world and of a
// flash-crowd world whose population outgrows its first chunks, at
// workers 1 and 4, checkNodeState's slab invariants hold after every
// round and no node's address changes once it is built.
func TestNodeSlabsFollowShards(t *testing.T) {
	flash := DefaultConfig(300)
	flash.Churn = churn.Config{LeaveFraction: 0.02, JoinFraction: 0.12, GracefulFraction: 0.5}
	for _, workers := range []int{1, 4} {
		for _, tc := range []struct {
			name string
			cfg  Config
		}{{"churn2000", churnConfig(2000)}, {"flashcrowd", flash}} {
			cfg := tc.cfg
			cfg.Workers = workers
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for s := range w.arenas {
				first, list := w.slabs[s].chunks[0], w.arenas[s].nodes
				if len(first) != len(list) {
					t.Fatalf("%s workers %d shard %d: first chunk of %d slots for a work list of %d", tc.name, workers, s, len(first), len(list))
				}
				for k, id := range list {
					if w.nodes[id] != &first[k] {
						t.Fatalf("%s workers %d shard %d: work-list node %d (position %d) is not slot %d of the first chunk", tc.name, workers, s, id, k, k)
					}
				}
			}
			// A node is its ring ID under its generation: a joiner on a
			// recycled ID has the next one.
			type built struct {
				id  overlay.NodeID
				gen uint64
			}
			home := map[built]*Node{}
			note := func(round int) {
				for _, id := range w.order {
					n := w.nodes[id]
					key := built{id, n.Gen}
					if at, ok := home[key]; ok && at != n {
						t.Fatalf("%s workers %d round %d: node %d (generation %d) moved", tc.name, workers, round, id, n.Gen)
					}
					home[key] = n
				}
			}
			note(-1)
			engine := sim.NewEngine(w, cfg.Tau)
			start := w.Size()
			for r := 0; r < 20; r++ {
				engine.Run(1)
				checkNodeState(t, w)
				note(r)
			}
			chunks := 0
			for s := range w.slabs {
				chunks += len(w.slabs[s].chunks)
			}
			t.Logf("%s workers %d: %d → %d nodes, %d nodes built, %d chunks", tc.name, workers, start, w.Size(), len(home), chunks)
			if tc.name == "flashcrowd" && chunks <= 2*phaseShards {
				t.Fatalf("flash crowd grew from %d to %d nodes in %d chunks: no shard outgrew its first two", start, w.Size(), chunks)
			}
		}
	}
}
