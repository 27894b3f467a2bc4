package core

import (
	"slices"
	"strings"
	"testing"

	"continustreaming/internal/buffer"
	"continustreaming/internal/churn"
	"continustreaming/internal/metrics"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// candidatesOracle is candidatesFor's differential oracle: a per-ID scan
// of every neighbour snapshot that shares no code with the word path and
// assumes nothing about where a window opens.
func candidatesOracle(n *Node, index []int32, snaps []buffer.Map, win segment.Window, round int) []scheduler.Candidate {
	found := make(map[segment.ID][]scheduler.Supplier)
	for _, nb := range n.Table.Neighbors() {
		j := index[nb]
		if j < 0 {
			continue
		}
		snap := snaps[j]
		wn := win.Intersect(snap.Window())
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
// (2) over the positions gathered from each neighbour snapshot.
func rarityOracle(w *World, sup overlay.NodeID, index []int32, snaps []buffer.Map, id segment.ID) float64 {
	var positions []int
	for _, nb := range w.neighborsOf(sup) {
		j := index[nb]
		if j < 0 {
			continue
		}
		if pft, ok := snaps[j].PositionFromTail(id); ok {
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
		var sample metrics.RoundSample
		snaps := w.exchangePhase(&sample)
		index := w.buildIndex()
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
			fast := w.candidatesFor(&ar, n, index, snaps, fetchWin, w.round)
			slow := candidatesOracle(n, index, snaps, fetchWin, w.round)
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
// snapshots the serve phase reads.
func TestServeRarityMatchesOracle(t *testing.T) {
	var ctx serveCtx
	compared := 0
	w, engine := churnWorld(t, func(w *World, phase string) {
		if phase != "serve" {
			return
		}
		var sample metrics.RoundSample
		snaps := w.exchangePhase(&sample)
		index := w.buildIndex()
		pos := w.playbackPos(w.round)
		size := w.cfg.BufferSegments
		ctx.ensure(w)
		ctx.snaps, ctx.index, ctx.pos = snaps, index, pos
		ctx.cache = &rarityCache{vals: make([]float64, size), stamp: make([]int32, size)}
		for _, sup := range w.order {
			ctx.sn = w.nodes[sup]
			ctx.neighbours = w.neighborsOf(sup)
			ctx.prepRarity()
			ctx.cache.begin(pos)
			for id := pos - 1; id <= pos+segment.ID(size); id++ {
				if got, want := ctx.rarity(id), rarityOracle(w, sup, index, snaps, id); got != want {
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

// TestMisalignedWindowTripsInvariant pins the alignment invariant: a node
// scheduling or serving against a window its buffer or a neighbour's
// snapshot does not open at is a sequencing bug, and panics naming the
// node, the window and the stray origin.
func TestMisalignedWindowTripsInvariant(t *testing.T) {
	w, sup, snaps, index := serveFixture(t, 1, 0)
	n := w.Node(sup)
	size := w.cfg.BufferSegments
	win := segment.Window{Lo: 0, Hi: 20}
	stale := slices.Clone(snaps)
	stale[index[n.Table.Neighbors()[0]]] = buffer.New(size, 10).Snapshot()

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
		w.candidatesFor(&roundArena{}, n, index, snaps, segment.Window{Lo: 10, Hi: 30}, 0)
	})
	mustPanic("neighbour snapshot ahead of the window", "snapshot [10,610) in a round whose windows open at 0", func() {
		w.candidatesFor(&roundArena{}, n, index, stale, win, 0)
	})
	mustPanic("serve against a stray snapshot", "snapshot [10,610) in a round whose windows open at 0", func() {
		w.serveSupplier(&roundArena{}, w.shardOf(sup), sup, nil, stale, index, 0, sim.Time(w.cfg.Tau), 0, w.cfg.Stream.Rate)
	})
	if got := w.candidatesFor(&roundArena{}, n, index, snaps, win, 0); got != nil {
		t.Fatalf("aligned empty world enumerated %d candidates", len(got))
	}
}
