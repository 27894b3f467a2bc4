package core

import (
	"slices"
	"strings"
	"testing"

	"continustreaming/internal/buffer"
	"continustreaming/internal/churn"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// candidatesOracle is candidatesFor's differential oracle: a per-ID scan
// of a fresh Snapshot copy of every live neighbour's buffer, which shares
// no code with the word path and assumes nothing about where a window
// opens.
func candidatesOracle(w *World, n *Node, win segment.Window, round int) []scheduler.Candidate {
	found := make(map[segment.ID][]scheduler.Supplier)
	for _, nb := range n.Table.Neighbors() {
		m := w.nodes[nb]
		if m == nil {
			continue
		}
		snap := m.Buf.Snapshot()
		wn := win.Intersect(segment.Window{Lo: snap.Lo, Hi: snap.Lo + segment.ID(snap.Size)})
		for id := wn.Lo; id < wn.Hi; id++ {
			if !snap.Has(id) || n.Buf.Has(id) || n.seg.InFlight(id, round) {
				continue
			}
			pft, _ := snap.PositionFromTail(id)
			found[id] = append(found[id], scheduler.Supplier{
				Node:             int(nb),
				Rate:             n.Ctrl.Rate(int(nb)),
				PositionFromTail: pft,
			})
		}
	}
	cands := make([]scheduler.Candidate, 0, len(found))
	for id := win.Lo; id < win.Hi; id++ {
		if sups, ok := found[id]; ok {
			cands = append(cands, scheduler.Candidate{ID: id, Suppliers: sups})
		}
	}
	return cands
}

// rarityOracle is the serve-side rarity's differential oracle: equation
// (2) over the positions gathered from a Snapshot copy of each live
// neighbour's buffer.
func rarityOracle(w *World, sup overlay.NodeID, id segment.ID) float64 {
	var positions []int
	for _, nb := range w.neighborsOf(sup) {
		m := w.nodes[nb]
		if m == nil {
			continue
		}
		if pft, ok := m.Buf.Snapshot().PositionFromTail(id); ok {
			positions = append(positions, pft)
		}
	}
	return protocol.SupplierRarity(w.cfg.BufferSegments, positions)
}

// churnWorld builds the differential tests' world: churn supplies
// partially filled buffers, dead neighbours and pending gossip and
// pre-fetch marks round after round. onPhase is called at every phase
// boundary with the world in the state that phase is about to read.
func churnWorld(t *testing.T, onPhase func(w *World, phase string)) (*World, *sim.Engine) {
	t.Helper()
	cfg := DefaultConfig(120)
	cfg.Profile = ProfileContinuStreaming()
	cfg.Churn = churn.DefaultConfig()
	cfg.Seed = 7
	var w *World
	cfg.PhaseProbe = func(phase string) { onPhase(w, phase) }
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, sim.NewEngine(w, cfg.Tau)
}

// TestCandidatesWordMatchesOracle differentially tests the word-parallel
// candidate enumeration (union algebra, the pending pre-pass and
// scheduler.FillCandidates' bit-sliced positional popcount) against the
// per-ID oracle, on exactly the inputs the schedule phase reads: the
// comparison runs at the phase's boundary inside each round, after
// beginRound aligned the buffers and the push and pre-fetch phases left
// their marks.
func TestCandidatesWordMatchesOracle(t *testing.T) {
	var ar roundArena
	compared, moving := 0, 0
	w, engine := churnWorld(t, func(w *World, phase string) {
		if phase != "schedule" {
			return
		}
		pos := w.playbackPos(w.round)
		fetchWin := segment.Window{Lo: pos, Hi: w.fetchEdge(w.round)}
		for _, id := range w.order {
			n := w.nodes[id]
			if n.IsSource {
				continue
			}
			// The fence against a vacuous comparison: the call below must
			// take the word path, which needs the buffer at the window.
			if n.Buf.Lo() != pos {
				t.Fatalf("round %d node %d: buffer opens at %d, window at %d; the test is not driving the word path",
					w.round, id, n.Buf.Lo(), pos)
			}
			fast := w.candidatesFor(&ar, n, fetchWin, w.round)
			slow := candidatesOracle(w, n, fetchWin, w.round)
			if len(fast) != len(slow) {
				t.Fatalf("round %d node %d: fast enumerated %d candidates, oracle %d",
					w.round, id, len(fast), len(slow))
			}
			for i := range slow {
				f, s := fast[i], slow[i]
				if f.ID != s.ID || !slices.Equal(f.Suppliers, s.Suppliers) {
					t.Fatalf("round %d node %d cand %d: %+v vs oracle %+v", w.round, id, i, f, s)
				}
			}
			compared += len(slow)
			if pos > 0 {
				moving += len(slow)
			}
		}
	})
	engine.Run(w.cfg.PlaybackDelayRounds + 8)
	if compared <= 20000 || moving == 0 || moving == compared {
		t.Fatalf("compared %d candidates, %d of them on a moving window; want > 20000 spanning warm-up and moving-window rounds",
			compared, moving)
	}
}

// TestServeRarityMatchesOracle differentially tests the serve phase's
// holder-count rarity against the position-gathering oracle, for every
// supplier and every in-window segment (plus one ID either side), on the
// buffers the serve phase reads.
func TestServeRarityMatchesOracle(t *testing.T) {
	var ctx serveCtx
	compared := 0
	w, engine := churnWorld(t, func(w *World, phase string) {
		if phase != "serve" {
			return
		}
		pos := w.playbackPos(w.round)
		size := w.cfg.BufferSegments
		ctx.ensure(w)
		ctx.pos = pos
		for _, sup := range w.order {
			ctx.sn = w.nodes[sup]
			ctx.neighbours = w.neighborsOf(sup)
			ctx.prepRarity()
			for id := pos - 1; id <= pos+segment.ID(size); id++ {
				if got, want := ctx.rarity(id), rarityOracle(w, sup, id); got != want {
					t.Fatalf("round %d supplier %d segment %d: rarity %v, oracle %v", w.round, sup, id, got, want)
				}
				compared++
			}
		}
	})
	engine.Run(w.cfg.PlaybackDelayRounds + 4)
	if compared == 0 {
		t.Fatal("no rarity was ever compared")
	}
}

// TestBuffersQuietFromExchangeToApply pins the invariant the schedule and
// serve phases rest on when they read neighbours' buffers in place: no
// phase between the buffer-map exchange and delivery application writes a
// buffer. It copies every live node's buffer just after the exchange and
// requires the same window origin and words when the apply phase opens.
func TestBuffersQuietFromExchangeToApply(t *testing.T) {
	type copied struct {
		id  overlay.NodeID
		buf buffer.Map
	}
	var at []copied
	compared, held := 0, 0
	w, engine := churnWorld(t, func(w *World, phase string) {
		switch phase {
		case "predict":
			at = at[:0]
			for _, id := range w.order {
				at = append(at, copied{id, w.nodes[id].Buf.Snapshot()})
			}
		case "apply":
			if len(at) != len(w.order) {
				t.Fatalf("round %d: %d live nodes after the exchange, %d at apply", w.round, len(at), len(w.order))
			}
			for _, c := range at {
				n := w.nodes[c.id]
				if n == nil {
					t.Fatalf("round %d: node %d died between the exchange and apply", w.round, c.id)
				}
				if n.Buf.Lo() != c.buf.Lo || !slices.Equal(n.Buf.Words(), c.buf.Bits) {
					t.Fatalf("round %d: node %d's buffer changed between the exchange and apply (origin %d -> %d)",
						w.round, c.id, c.buf.Lo, n.Buf.Lo())
				}
				compared++
				held += n.Buf.Held()
			}
		}
	})
	rounds := w.cfg.PlaybackDelayRounds + 8
	engine.Run(rounds)
	if compared < rounds*w.cfg.Nodes/2 || held == 0 {
		t.Fatalf("compared %d buffers holding %d segments over %d rounds; want at least %d non-empty buffers",
			compared, held, rounds, rounds*w.cfg.Nodes/2)
	}
}

// TestMisalignedWindowTripsInvariant pins the alignment invariant: a node
// scheduling or serving against a window its buffer or a neighbour's
// buffer does not open at is a sequencing bug, and panics naming the
// node, the window and the stray origin.
func TestMisalignedWindowTripsInvariant(t *testing.T) {
	w, sup := serveFixture(t, 1, 0)
	n := w.Node(sup)
	win := segment.Window{Lo: 0, Hi: 20}

	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg, _ := recover().(string); !strings.Contains(msg, want) {
				t.Fatalf("%s: recovered %q, want a panic naming %q", name, msg, want)
			}
		}()
		f()
	}
	mustPanic("own buffer behind the window", "with its buffer at 0", func() {
		w.candidatesFor(&roundArena{}, n, segment.Window{Lo: 10, Hi: 30}, 0)
	})
	if got := w.candidatesFor(&roundArena{}, n, win, 0); got != nil {
		t.Fatalf("aligned empty world enumerated %d candidates", len(got))
	}
	// One neighbour's buffer runs ahead of the round's shared origin.
	w.Node(n.Table.Neighbors()[0]).Buf.AdvanceTo(10)
	mustPanic("neighbour buffer ahead of the window", "buffer [10,610) in a round whose windows open at 0", func() {
		w.candidatesFor(&roundArena{}, n, win, 0)
	})
	mustPanic("serve against a stray buffer", "buffer [10,610) in a round whose windows open at 0", func() {
		w.serveSupplier(&roundArena{}, w.Node(sup), sim.Time(w.cfg.Tau), 0)
	})
}
