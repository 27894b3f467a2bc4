package scheduler

// RarestFirst is the CoolStreaming scheduling rule the paper compares
// against: "assign data segments which own fewer suppliers with higher
// priority". Equal supplier counts fall back on the jittered order every
// policy shares (see Input.JitterSeed), then on ID, so the baseline is not
// handicapped by arbitrary ordering. Supplier selection reuses the same
// earliest-completion greedy assignment as Algorithm 1 — the systems differ
// only in ordering, mirroring the papers.
type RarestFirst struct{}

// Name implements Policy.
func (RarestFirst) Name() string { return "rarest-first" }

// Schedule implements Policy.
func (RarestFirst) Schedule(in Input) []Request {
	scored := scoreCandidates(&in)
	for i := range scored {
		scored[i].priority = -float64(len(in.Candidates[scored[i].at].Suppliers)) // fewer suppliers = rarer = first
	}
	return assignGreedy(&in, scored)
}
