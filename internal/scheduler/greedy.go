package scheduler

import (
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// Greedy is Algorithm 1: candidates are taken in descending requesting
// priority, and each is assigned the supplier that can deliver it earliest
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
	scored := scoreCandidates(&in)
	for i := range scored {
		scored[i].priority = combinedPriority(&in, in.Candidates[scored[i].at])
	}
	return assignGreedy(&in, scored)
}

// combinedPriority is equation (3) over the perturbed terms.
func combinedPriority(in *Input, c Candidate) float64 {
	p := noisyUrgency(in, c)
	if r := noisyRarity(in, c); r > p {
		p = r
	}
	return p
}

// scoredCandidate is one candidate's rank keys — the policy's priority,
// the node's jitter key for it (see Input.JitterSeed), hashed once per
// candidate, and its ID — and where it sits in Input.Candidates.
type scoredCandidate struct {
	priority float64
	jitter   uint64
	id       segment.ID
	at       int
}

// ranksBefore reports whether a is assigned before b: higher priority
// first, ties broken by the node's jitter so neighbouring peers diverge,
// then by ID for full determinism. Priorities are finite: equations (1)–(3)
// over a validated configuration (positive playback rate and buffer size).
func ranksBefore(a, b *scoredCandidate) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if a.jitter != b.jitter {
		return a.jitter < b.jitter
	}
	return a.id < b.id
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

// scoreCandidates lists the candidates that have a supplier, each with its
// jitter key and a zero priority for the policy to fill in, in the call's
// scratch. Every policy enters through here, so a nil in.Scratch becomes a
// one-call scratch at this one place and nothing downstream tests for it.
func scoreCandidates(in *Input) []scoredCandidate {
	if in.Scratch == nil {
		in.Scratch = &Scratch{}
	}
	out := in.Scratch.scored[:0]
	for i, c := range in.Candidates {
		if len(c.Suppliers) > 0 {
			out = append(out, scoredCandidate{jitter: Jitter(in.JitterSeed, uint64(c.ID), 0), id: c.ID, at: i})
		}
	}
	in.Scratch.scored = out
	return out
}

// assignGreedy runs the supplier-selection loop shared by every policy:
// only the candidate ORDER differs between policies, which is exactly the
// paper's framing (CoolStreaming orders by rarity alone; ContinuStreaming
// by the combined priority). It takes the scored candidates in ranksBefore
// order off a binary heap built over them in O(n), and stops once the
// inbound budget is spent, so the candidates past the budget are never
// ordered; the result is the full sort's (TestHeapAssignmentMatchesSortedOracle).
// scored is reordered in place.
func assignGreedy(in *Input, scored []scoredCandidate) []Request {
	budget := in.InboundBudget
	if budget <= 0 || len(scored) == 0 {
		return nil
	}
	for i := len(scored)/2 - 1; i >= 0; i-- {
		siftDown(scored, i)
	}
	tauMS := float64(in.Tau)
	// queue tracks supplier -> queueing time τ(j) in ms; reqs doubles as
	// the duplicate-candidate guard (an ID appears in it iff assigned).
	queue := in.Scratch.queue[:0]
	reqs := in.Scratch.reqs
	start := len(reqs)
	for heap := scored; len(heap) > 0 && len(reqs)-start < budget; {
		// Pop: the top moves to the heap's last slot, which leaves the heap.
		last := len(heap) - 1
		heap[0], heap[last] = heap[last], heap[0]
		sc := &heap[last]
		heap = heap[:last]
		siftDown(heap, 0)
		dup := false
		for _, r := range reqs[start:] {
			if r.ID == sc.id {
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
		for _, s := range in.Candidates[sc.at].Suppliers {
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
			j := Jitter(in.JitterSeed, uint64(sc.id), uint64(s.Node)+1)
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
			ID:         sc.id,
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

// siftDown moves h[i] down until it ranks before both its children: the
// heap step of assignGreedy, whose top is the candidate that ranks first.
func siftDown(h []scoredCandidate, i int) {
	for {
		top := i
		if l := 2*i + 1; l < len(h) && ranksBefore(&h[l], &h[top]) {
			top = l
		}
		if r := 2*i + 2; r < len(h) && ranksBefore(&h[r], &h[top]) {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// unreachable is an expected completion time no real transfer has.
const unreachable = 1e18
