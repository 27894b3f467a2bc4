package scheduler

import (
	"cmp"
	"slices"

	"continustreaming/internal/sim"
)

// RarestFirst is the CoolStreaming scheduling rule the paper compares
// against: "assign data segments which own fewer suppliers with higher
// priority". Ties (equal supplier counts) are broken by earliest deadline
// so the baseline is not handicapped by arbitrary ordering, then by ID for
// determinism. Supplier selection reuses the same earliest-completion
// greedy assignment as Algorithm 1 — the systems differ only in ordering,
// mirroring the papers.
type RarestFirst struct{}

// Name implements Policy.
func (RarestFirst) Name() string { return "rarest-first" }

// Schedule implements Policy.
func (RarestFirst) Schedule(in Input) []Request {
	scored := scoreCandidates(&in, nil)
	slices.SortFunc(scored, func(a, b scoredCandidate) int {
		na, nb := len(a.c.Suppliers), len(b.c.Suppliers)
		if na != nb {
			return cmp.Compare(na, nb) // fewer suppliers = rarer = first
		}
		// Equal rarity: jittered order (see Input.JitterSeed), then ID.
		ja := Jitter(in.JitterSeed, uint64(a.c.ID), 0)
		jb := Jitter(in.JitterSeed, uint64(b.c.ID), 0)
		if ja != jb {
			return cmp.Compare(ja, jb)
		}
		return cmp.Compare(a.c.ID, b.c.ID)
	})
	return assignGreedy(in, scored)
}

// Random schedules candidates in uniformly random order; it exists as an
// ablation floor showing how much the priority functions matter.
type Random struct {
	RNG *sim.RNG
}

// Name implements Policy.
func (r *Random) Name() string { return "random-order" }

// Schedule implements Policy.
func (r *Random) Schedule(in Input) []Request {
	scored := scoreCandidates(&in, nil)
	// Deterministic order first, then a seeded shuffle.
	slices.SortFunc(scored, func(a, b scoredCandidate) int { return cmp.Compare(a.c.ID, b.c.ID) })
	r.RNG.Shuffle(len(scored), func(i, j int) { scored[i], scored[j] = scored[j], scored[i] })
	return assignGreedy(in, scored)
}

// UrgencyOnly orders purely by urgency; RarityOnly purely by rarity. Both
// exist for the ablation benches that justify equation (3)'s max().
type UrgencyOnly struct{}

// Name implements Policy.
func (UrgencyOnly) Name() string { return "urgency-only" }

// Schedule implements Policy.
func (UrgencyOnly) Schedule(in Input) []Request {
	scored := scoreCandidates(&in, noisyUrgency)
	sortByPriority(in, scored)
	return assignGreedy(in, scored)
}

// RarityOnly orders purely by rarity.
type RarityOnly struct{}

// Name implements Policy.
func (RarityOnly) Name() string { return "rarity-only" }

// Schedule implements Policy.
func (RarityOnly) Schedule(in Input) []Request {
	scored := scoreCandidates(&in, noisyRarity)
	sortByPriority(in, scored)
	return assignGreedy(in, scored)
}
