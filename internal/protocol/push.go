package protocol

import (
	"cmp"
	"slices"

	"continustreaming/internal/overlay"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
)

// ranked is one (target, tie-break key) push candidate. All per-segment
// target lists live in one arena, delimited by offsets: segment i's
// candidates occupy arena[off[i]:off[i+1]].
type ranked struct {
	to  overlay.NodeID
	key uint64
}

func compareRanked(a, b ranked) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	return cmp.Compare(a.to, b.to)
}

// PushScratch is PlanPushMask's reusable working storage: the neighbour
// masks, the ranked arena and its offsets, and the sends, grow-only. The
// sends Plan returns alias it, so they are valid only until the next Plan
// call through the same scratch: the simulator's push hop keeps one per
// ownership shard and consumes each pusher's sends before planning the
// next.
type PushScratch struct {
	masks []uint64
	arena []ranked
	off   []int
	out   []Send
}

// PlanPushMask computes one pusher's eager transmissions for one hop of
// the fresh-segment push: for every fresh segment it holds, the pusher
// forwards copies to neighbours that lack the segment, breadth-first
// across segments (each segment gets its first copy out before any
// segment gets its second) until the outbound budget is exhausted.
//
// Per-segment target order is a hash of (seed, segment, target), so two
// pushers holding the same segment spray different neighbour prefixes and
// the copies spread instead of piling onto the lowest IDs; the order is a
// pure function of its inputs, which keeps the phase worker-count
// deterministic.
//
// lacks(nb) is the availability probe, one word per neighbour: a bitmask
// over the frontier window [base, base+64) in which bit (s-base) set means
// nb lacks segment s and can accept a copy (holders are skipped — though
// concurrent pushers in the same hop may still race to the same target,
// which the caller counts as a push duplicate on arrival). Every segment
// must satisfy base <= s < base+64: a push frontier is one period's fresh
// segments, and both runtimes bound the period to one word.
//
// It allocates its working storage afresh on every call; PushScratch.Plan
// is the same plan on reused storage.
func PlanPushMask(seed uint64, from overlay.NodeID, base segment.ID, segs []segment.ID, neighbours []overlay.NodeID, lacks func(overlay.NodeID) uint64, budget int) []Send {
	return new(PushScratch).Plan(seed, from, base, segs, neighbours, lacks, budget)
}

// Plan is PlanPushMask on the scratch's storage; the sends it returns
// alias the scratch (see PushScratch).
func (sc *PushScratch) Plan(seed uint64, from overlay.NodeID, base segment.ID, segs []segment.ID, neighbours []overlay.NodeID, lacks func(overlay.NodeID) uint64, budget int) []Send {
	if budget <= 0 || len(segs) == 0 || len(neighbours) == 0 {
		return nil
	}
	sc.masks = slices.Grow(sc.masks[:0], len(neighbours))
	for _, nb := range neighbours {
		sc.masks = append(sc.masks, lacks(nb))
	}
	arena := slices.Grow(sc.arena[:0], len(segs)*len(neighbours))
	off := append(slices.Grow(sc.off[:0], len(segs)+1), 0)
	for _, s := range segs {
		bit := uint64(1) << uint(s-base)
		start := len(arena)
		for j, nb := range neighbours {
			if sc.masks[j]&bit == 0 {
				continue
			}
			arena = append(arena, ranked{to: nb, key: scheduler.Jitter(seed, uint64(s), uint64(nb))})
		}
		off = append(off, len(arena))
		slices.SortFunc(arena[start:], compareRanked)
	}
	sc.arena, sc.off = arena, off
	if len(arena) == 0 {
		return nil
	}
	sc.out = emitPush(slices.Grow(sc.out[:0], min(len(arena), budget)), from, segs, arena, off, budget)
	return sc.out
}

// emitPush appends to out the sends of a walk over the ranked arena,
// breadth-first — each segment's first copy goes out before any segment's
// second — until the budget runs out.
func emitPush(out []Send, from overlay.NodeID, segs []segment.ID, arena []ranked, off []int, budget int) []Send {
	for depth := 0; budget > 0; depth++ {
		progressed := false
		for i, s := range segs {
			if depth >= off[i+1]-off[i] {
				continue
			}
			progressed = true
			out = append(out, Send{From: from, To: arena[off[i]+depth].to, ID: s})
			if budget--; budget <= 0 {
				return out
			}
		}
		if !progressed {
			break
		}
	}
	return out
}
