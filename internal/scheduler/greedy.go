package scheduler

import (
	"cmp"
	"slices"

	"continustreaming/internal/sim"
)

// Greedy is Algorithm 1: candidates are sorted by descending requesting
// priority, then each is assigned the supplier that can deliver it earliest
// — the supplier minimising queueing time τ(j) plus transfer time 1/R(j) —
// subject to the whole transfer completing inside the scheduling period.
// Assigning a segment advances that supplier's queueing time, so later
// (lower-priority) segments see the contention their predecessors created.
// The underlying exact problem is NP-hard (parallel machine scheduling), so
// greedy is the paper's chosen approximation.
type Greedy struct{}

// Name implements Policy.
func (Greedy) Name() string { return "urgency-rarity-greedy" }

// Schedule implements Policy.
func (Greedy) Schedule(in Input) []Request {
	scored := scoreCandidates(&in, combinedPriority)
	sortByPriority(in, scored)
	return assignGreedy(in, scored)
}

// combinedPriority is equation (3) over the perturbed terms.
func combinedPriority(in Input, c Candidate) float64 {
	p := noisyUrgency(in, c)
	if r := noisyRarity(in, c); r > p {
		p = r
	}
	return p
}

type scoredCandidate struct {
	c        Candidate
	priority float64
}

// supplierLoad is one supplier's accumulated queueing time during a
// single greedy assignment. Candidate supplier lists are a node's few
// neighbours, so a linear scan over this dense list replaces the old
// map without changing any lookup result (absent = 0, like a map read).
type supplierLoad struct {
	node int
	at   float64
}

// Scratch is a scheduling policy's reusable working storage: the scored
// slice and supplier-load list reset per Schedule call, and a grow-only
// request arena that successive calls carve their results from. Requests
// returned through the same Scratch stay valid until Reset — callers
// batching many nodes (the simulator's schedule shards) reset once per
// round after the requests are consumed.
type Scratch struct {
	scored []scoredCandidate
	queue  []supplierLoad
	reqs   []Request
}

// Reset reclaims the request arena; results carved before the call are
// invalidated.
func (sc *Scratch) Reset() { sc.reqs = sc.reqs[:0] }

// sortByPriority orders candidates by descending priority, breaking ties
// with the node's jitter so neighbouring peers diverge, then by ID for
// full determinism.
func sortByPriority(in Input, scored []scoredCandidate) {
	slices.SortFunc(scored, func(a, b scoredCandidate) int {
		if a.priority != b.priority {
			return cmp.Compare(b.priority, a.priority)
		}
		ja := Jitter(in.JitterSeed, uint64(a.c.ID), 0)
		jb := Jitter(in.JitterSeed, uint64(b.c.ID), 0)
		if ja != jb {
			return cmp.Compare(ja, jb)
		}
		return cmp.Compare(a.c.ID, b.c.ID)
	})
}

// scoreCandidates lists the candidates that have a supplier, each with the
// priority the policy's function gives it (nil: unranked), in the call's
// scratch. Every policy enters through here, so a nil in.Scratch becomes a
// one-call scratch at this one place and nothing downstream tests for it.
func scoreCandidates(in *Input, priority func(Input, Candidate) float64) []scoredCandidate {
	if in.Scratch == nil {
		in.Scratch = &Scratch{}
	}
	out := in.Scratch.scored[:0]
	for _, c := range in.Candidates {
		if len(c.Suppliers) == 0 {
			continue
		}
		sc := scoredCandidate{c: c}
		if priority != nil {
			sc.priority = priority(*in, c)
		}
		out = append(out, sc)
	}
	in.Scratch.scored = out
	return out
}

// assignGreedy runs the supplier-selection loop shared by every policy:
// only the candidate ORDER differs between policies, which is exactly the
// paper's framing (CoolStreaming orders by rarity alone; ContinuStreaming
// by the combined priority).
func assignGreedy(in Input, ordered []scoredCandidate) []Request {
	limit := in.InboundBudget
	if len(ordered) < limit {
		limit = len(ordered)
	}
	if limit <= 0 {
		return nil
	}
	tauMS := float64(in.Tau)
	// queue tracks supplier -> queueing time τ(j) in ms; reqs doubles as
	// the duplicate-candidate guard (an ID appears in it iff assigned).
	queue := in.Scratch.queue[:0]
	reqs := in.Scratch.reqs
	start := len(reqs)
	for _, sc := range ordered {
		if len(reqs)-start >= limit {
			break
		}
		dup := false
		for _, r := range reqs[start:] {
			if r.ID == sc.c.ID {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		bestAt := unreachable
		bestSupplier := -1
		bestJitter := uint64(0)
		for _, s := range sc.c.Suppliers {
			if s.Rate <= 0 {
				continue
			}
			queued := 0.0
			for _, q := range queue {
				if q.node == s.Node {
					queued = q.at
					break
				}
			}
			trans := 1000.0 / s.Rate // ms per segment
			at := queued + trans
			// Algorithm 1 line 7: the transfer must beat both the current
			// best and the period boundary. Exact ties on expected time
			// (common when rate estimates match) break via node jitter so
			// requesters spread across suppliers instead of piling onto
			// the lowest ID.
			if at >= tauMS {
				continue
			}
			j := Jitter(in.JitterSeed, uint64(sc.c.ID), uint64(s.Node)+1)
			if at < bestAt || (at == bestAt && j < bestJitter) {
				bestAt = at
				bestSupplier = s.Node
				bestJitter = j
			}
		}
		if bestSupplier < 0 {
			continue // supplier_i = null: nobody can deliver in time
		}
		found := false
		for i := range queue {
			if queue[i].node == bestSupplier {
				queue[i].at = bestAt
				found = true
				break
			}
		}
		if !found {
			queue = append(queue, supplierLoad{node: bestSupplier, at: bestAt})
		}
		reqs = append(reqs, Request{
			ID:         sc.c.ID,
			Supplier:   bestSupplier,
			ExpectedAt: sim.Time(bestAt),
		})
	}
	in.Scratch.queue = queue
	in.Scratch.reqs = reqs
	if len(reqs) == start {
		return nil
	}
	return reqs[start:len(reqs):len(reqs)]
}

// unreachable is an expected completion time no real transfer has.
const unreachable = 1e18
