package scheduler

import (
	"cmp"
	"slices"
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
