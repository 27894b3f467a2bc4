package core

import (
	"fmt"
	"slices"
	"testing"

	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/sim"
)

// pullWorlds are the worlds the pull reference tests step: a 2 000-node
// world under the default churn, a 500-node static one, and a 500-node
// static baseline world, whose suppliers stage round-robin requests
// instead of engine asks.
func pullWorlds() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"churn2000", churnConfig(2000)},
		{"static500", DefaultConfig(500)},
		{"baseline500", smallConfig(500, ProfileCoolStreaming())},
	}
}

// heard is one membership-gossip notification as its hearer takes it.
type heard struct {
	about overlay.NodeID
	lat   sim.Time
}

// TestPulledHearsMatchScatter checks maintenance's in-place gossip pull
// against the scatter it replaced, kept here as the reference: every node,
// senders ascending, draws protocol.GossipPicks from a copy of its RNG
// and files each pick under its hearer in emission order — the order the
// per-shard reserve/put lists delivered, read in producer-shard order.
// Every round for 20 rounds, before the maintenance phase runs, the
// production draw (drawGossip) followed by each node's pulledHears must
// hand every node exactly the reference's notifications in the
// reference's order; the node RNGs are restored afterwards so the world's
// own phase draws the same picks again.
func TestPulledHearsMatchScatter(t *testing.T) {
	for _, tc := range pullWorlds() {
		t.Run(tc.name, func(t *testing.T) {
			var w *World
			compared := 0
			tc.cfg.PhaseProbe = func(phase string) {
				if phase != "maintenance" {
					return
				}
				want := make([][]heard, len(w.nodes))
				saved := make([]sim.RNG, len(w.order))
				alive := func(id overlay.NodeID) bool { return w.nodes[id] != nil }
				for i, id := range w.order {
					n := w.nodes[id]
					saved[i] = n.RNG
					rng := n.RNG
					protocol.GossipPicks(&rng, n.Table.Neighbors(), alive, func(to, about overlay.NodeID) {
						want[to] = append(want[to], heard{about, w.Latency(to, about)})
					})
				}
				w.drawGossip()
				for i, id := range w.order {
					w.nodes[id].RNG = saved[i]
				}
				for _, id := range w.order {
					var got []heard
					w.pulledHears(id, w.nodes[id].Table.Neighbors(), func(about overlay.NodeID) {
						got = append(got, heard{about, w.Latency(id, about)})
					})
					if !slices.Equal(got, want[id]) {
						t.Fatalf("round %d node %d: pulled %v, the scatter delivered %v", w.round, id, got, want[id])
					}
					compared += len(got)
				}
			}
			var err error
			if w, err = NewWorld(tc.cfg); err != nil {
				t.Fatal(err)
			}
			sim.NewEngine(w, tc.cfg.Tau).Run(20)
			if compared == 0 {
				t.Fatal("no node heard anything; the comparison was vacuous")
			}
		})
	}
}

// TestPulledAsksMatchScatter checks the serve phase's in-place ask pull
// against the scatter it replaced, kept here as the reference: requesters
// ascending, each requester's scheduled asks in list order, filed under
// their supplier — the per-shard reserve/put lists read in producer-shard
// order and stably grouped by supplier. Every round for 20 rounds, before
// the serve phase runs, pullAsks must stage for every node exactly the
// reference's asks in the reference's order, as PlanServe asks (deadline
// from the segment) on engine worlds and as round-robin requests
// (expected arrival) on the baseline world.
func TestPulledAsksMatchScatter(t *testing.T) {
	for _, tc := range pullWorlds() {
		t.Run(tc.name, func(t *testing.T) {
			var w *World
			var engine *sim.Engine
			compared := 0
			tc.cfg.PhaseProbe = func(phase string) {
				if phase != "serve" {
					return
				}
				start := engine.Clock().Now()
				pos, p := w.playbackPos(w.round), w.cfg.Stream.Rate
				want := make([][]string, len(w.nodes))
				for _, id := range w.order {
					n := w.nodes[id]
					for _, req := range n.asks {
						rec := fmt.Sprint(n.ID, req.ID, req.ExpectedAt)
						if w.cfg.Profile.Engine {
							rec = fmt.Sprint(n.ID, req.ID, w.deadlineOf(req.ID, pos, p, start))
						}
						want[req.Supplier] = append(want[req.Supplier], rec)
					}
				}
				ar := &roundArena{}
				for _, id := range w.order {
					n := w.nodes[id]
					k := w.pullAsks(ar, n, start, pos, p)
					var got []string
					for _, a := range ar.planAsks {
						got = append(got, fmt.Sprint(a.Requester, a.ID, a.Deadline))
					}
					for _, r := range ar.rrReqs {
						got = append(got, fmt.Sprint(r.Requester, r.ID, r.Expected))
					}
					if k != len(got) || !slices.Equal(got, want[n.ID]) {
						t.Fatalf("round %d supplier %d: pulled %d asks %v, the scatter delivered %v", w.round, n.ID, k, got, want[n.ID])
					}
					compared += k
				}
			}
			var err error
			if w, err = NewWorld(tc.cfg); err != nil {
				t.Fatal(err)
			}
			engine = sim.NewEngine(w, tc.cfg.Tau)
			engine.Run(20)
			if compared == 0 {
				t.Fatal("no supplier was asked anything; the comparison was vacuous")
			}
		})
	}
}
