package protocol

import (
	"slices"
	"testing"

	"continustreaming/internal/overlay"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// TestSupplierRarityUniformMatchesScalar checks the aligned-window rarity
// shortcut bit for bit against the general product: when every holder
// reports the same position-from-tail — the invariant the round pipeline's
// shared playback origin guarantees — the repeated-factor form must equal
// SupplierRarity over the equal-valued position list exactly, because both
// execute the identical multiply sequence.
func TestSupplierRarityUniformMatchesScalar(t *testing.T) {
	rng := sim.DeriveRNG(1, 0x4a71)
	for trial := 0; trial < 5000; trial++ {
		size := 1 + rng.Intn(240)
		pos := rng.Intn(size+40) - 20 // includes out-of-range clamping cases
		count := rng.Intn(70)
		positions := make([]int, count)
		for i := range positions {
			positions[i] = pos
		}
		got := SupplierRarityUniform(size, pos, count)
		want := SupplierRarity(size, positions)
		if got != want {
			t.Fatalf("trial %d: SupplierRarityUniform(%d, %d, %d) = %v, want %v",
				trial, size, pos, count, got, want)
		}
	}
	if got := SupplierRarityUniform(120, 30, 0); got != 1.0 {
		t.Fatalf("zero holders: got %v, want the empty product 1.0", got)
	}
}

// planPushProbe is the push planner's differential oracle: the same plan
// with availability probed once per (segment, neighbour) pair — has reports
// whether a neighbour already holds a segment — and no window bound.
func planPushProbe(seed uint64, from overlay.NodeID, segs []segment.ID, neighbours []overlay.NodeID, has func(overlay.NodeID, segment.ID) bool, budget int) []Send {
	if budget <= 0 || len(segs) == 0 || len(neighbours) == 0 {
		return nil
	}
	arena := make([]ranked, 0, len(segs)*len(neighbours))
	off := make([]int, len(segs)+1)
	for i, s := range segs {
		for _, nb := range neighbours {
			if has(nb, s) {
				continue
			}
			arena = append(arena, ranked{to: nb, key: scheduler.Jitter(seed, uint64(s), uint64(nb))})
		}
		off[i+1] = len(arena)
		slices.SortFunc(arena[off[i]:], compareRanked)
	}
	return emitPush(nil, from, segs, arena, off, budget)
}

// TestPlanPushMaskMatchesPlanPush cross-checks the one-word availability
// probe against the per-(segment, neighbour) oracle on random frontiers:
// random neighbour sets, random per-neighbour holdings, random budgets.
// The two must emit identical Send sequences, and so must one
// PushScratch planning every trial in turn.
func TestPlanPushMaskMatchesPlanPush(t *testing.T) {
	rng := sim.DeriveRNG(1, 0x9a5e)
	var sc PushScratch
	for trial := 0; trial < 3000; trial++ {
		base := segment.ID(rng.Intn(1000))
		nSegs := 1 + rng.Intn(10)
		segs := make([]segment.ID, 0, nSegs)
		for i := 0; i < nSegs; i++ {
			s := base + segment.ID(rng.Intn(64))
			dup := false
			for _, p := range segs {
				if p == s {
					dup = true
					break
				}
			}
			if !dup {
				segs = append(segs, s)
			}
		}
		nNbrs := rng.Intn(8)
		neighbours := make([]overlay.NodeID, nNbrs)
		holds := make(map[overlay.NodeID]uint64, nNbrs)
		for i := range neighbours {
			nb := overlay.NodeID(1 + i*3 + rng.Intn(2))
			neighbours[i] = nb
			holds[nb] = rng.Uint64()
		}
		from := overlay.NodeID(999)
		seed := rng.Uint64()
		budget := rng.Intn(20)

		scalar := planPushProbe(seed, from, segs, neighbours,
			func(nb overlay.NodeID, s segment.ID) bool {
				return holds[nb]&(1<<uint(s-base)) != 0
			}, budget)
		word := PlanPushMask(seed, from, base, segs, neighbours,
			func(nb overlay.NodeID) uint64 { return ^holds[nb] }, budget)

		reused := sc.Plan(seed, from, base, segs, neighbours,
			func(nb overlay.NodeID) uint64 { return ^holds[nb] }, budget)

		if len(scalar) != len(word) || len(word) != len(reused) {
			t.Fatalf("trial %d: scalar planned %d sends, mask %d, mask on a reused scratch %d", trial, len(scalar), len(word), len(reused))
		}
		for i := range scalar {
			if scalar[i] != word[i] || word[i] != reused[i] {
				t.Fatalf("trial %d: send %d differs: scalar %+v, mask %+v, reused scratch %+v", trial, i, scalar[i], word[i], reused[i])
			}
		}
	}
}

// TestPushScratchAllocationFree holds a warm PushScratch to no allocation
// per plan.
func TestPushScratchAllocationFree(t *testing.T) {
	segs := []segment.ID{100, 101, 102, 103}
	neighbours := []overlay.NodeID{3, 8, 13, 21, 34, 55}
	lacks := func(nb overlay.NodeID) uint64 { return ^uint64(nb) }
	var sc PushScratch
	sc.Plan(7, 1, 100, segs, neighbours, lacks, 12)
	if allocs := testing.AllocsPerRun(100, func() { sc.Plan(7, 1, 100, segs, neighbours, lacks, 12) }); allocs != 0 {
		t.Fatalf("a warm PushScratch plan allocates %.0f times", allocs)
	}
}
