package scheduler

import (
	"cmp"
	"slices"
	"testing"

	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// sortedAssignment is the retired full-sort path, kept as the oracle for
// the heap in assignGreedy: score every candidate, sort the whole list with
// the policy's comparator (the jitter key hashed per comparison), then walk
// it in order until the budget is spent.
func sortedAssignment(in Input, rarest bool) []Request {
	type ranked struct {
		c        Candidate
		priority float64
	}
	var scored []ranked
	for _, c := range in.Candidates {
		if len(c.Suppliers) > 0 {
			scored = append(scored, ranked{c: c})
		}
	}
	jitter := func(r ranked) uint64 { return Jitter(in.JitterSeed, uint64(r.c.ID), 0) }
	if rarest {
		slices.SortFunc(scored, func(a, b ranked) int {
			na, nb := len(a.c.Suppliers), len(b.c.Suppliers)
			if na != nb {
				return cmp.Compare(na, nb)
			}
			if ja, jb := jitter(a), jitter(b); ja != jb {
				return cmp.Compare(ja, jb)
			}
			return cmp.Compare(a.c.ID, b.c.ID)
		})
	} else {
		for i := range scored {
			scored[i].priority = combinedPriority(&in, scored[i].c)
		}
		slices.SortFunc(scored, func(a, b ranked) int {
			if a.priority != b.priority {
				return cmp.Compare(b.priority, a.priority)
			}
			if ja, jb := jitter(a), jitter(b); ja != jb {
				return cmp.Compare(ja, jb)
			}
			return cmp.Compare(a.c.ID, b.c.ID)
		})
	}

	limit := min(in.InboundBudget, len(scored))
	var queue []supplierLoad
	var reqs []Request
	for _, sc := range scored {
		if len(reqs) >= limit {
			break
		}
		if slices.ContainsFunc(reqs, func(r Request) bool { return r.ID == sc.c.ID }) {
			continue
		}
		bestAt, bestSupplier, bestJitter := unreachable, -1, uint64(0)
		for _, s := range sc.c.Suppliers {
			if s.Rate <= 0 {
				continue
			}
			queued := 0.0
			if k := slices.IndexFunc(queue, func(q supplierLoad) bool { return q.node == s.Node }); k >= 0 {
				queued = queue[k].at
			}
			at := queued + 1000.0/s.Rate
			if at >= float64(in.Tau) {
				continue
			}
			j := Jitter(in.JitterSeed, uint64(sc.c.ID), uint64(s.Node)+1)
			if at < bestAt || (at == bestAt && j < bestJitter) {
				bestAt, bestSupplier, bestJitter = at, s.Node, j
			}
		}
		if bestSupplier < 0 {
			continue
		}
		if k := slices.IndexFunc(queue, func(q supplierLoad) bool { return q.node == bestSupplier }); k >= 0 {
			queue[k].at = bestAt
		} else {
			queue = append(queue, supplierLoad{node: bestSupplier, at: bestAt})
		}
		reqs = append(reqs, Request{ID: sc.c.ID, Supplier: bestSupplier, ExpectedAt: sim.Time(bestAt)})
	}
	return reqs
}

// tieHeavyInput draws a candidate set built to tie: most IDs sit inside a
// second of the play position (saturated urgency), positions repeat (equal
// rarity), supplier counts are 1 to 3 (equal for RarestFirst), and rates
// come from a short list (equal completion times, some past the period,
// some zero). A few candidates have no supplier.
func tieHeavyInput(rng *sim.RNG) Input {
	in := schedInput(0)
	in.JitterSeed = rng.Uint64()
	in.NoPlayback = rng.Intn(4) == 0
	if rng.Intn(2) == 0 {
		in.RarityNoise = 0.1
	}
	rates := []float64{0, 1.25, 5, 10, 10, 20}
	n := rng.Intn(40)
	for _, off := range rng.Perm(60)[:n] {
		c := Candidate{ID: in.Play + segment.ID(off%15)}
		if off >= 15 {
			c.ID = in.Play + segment.ID(off*7)
		}
		k := rng.Intn(4)
		for _, node := range rng.Perm(6)[:k] {
			c.Suppliers = append(c.Suppliers, Supplier{
				Node:             node + 1,
				Rate:             rates[rng.Intn(len(rates))],
				PositionFromTail: []int{60, 300, 600}[rng.Intn(3)],
			})
		}
		in.Candidates = append(in.Candidates, c)
	}
	return in
}

// TestHeapAssignmentMatchesSortedOracle differentially tests the heap in
// assignGreedy against the retired full sort: over random tie-heavy
// candidate sets, every budget from 0 to three past the candidate count,
// and both policies, one Scratch reused across every call, the requests
// are identical entry for entry.
func TestHeapAssignmentMatchesSortedOracle(t *testing.T) {
	rng := sim.DeriveRNG(1, 0x4ea9)
	var sc Scratch
	ties, assigned := 0, 0
	for trial := 0; trial < 300; trial++ {
		in := tieHeavyInput(rng)
		var prios []float64
		for _, c := range in.Candidates {
			if len(c.Suppliers) > 0 {
				prios = append(prios, combinedPriority(&in, c))
			}
		}
		slices.Sort(prios)
		ties += len(prios) - len(slices.Compact(prios))
		for budget := 0; budget <= len(in.Candidates)+3; budget++ {
			in.InboundBudget = budget
			for _, p := range []Policy{Greedy{}, RarestFirst{}} {
				call := in
				call.Scratch = &sc
				got := p.Schedule(call)
				want := sortedAssignment(in, p.Name() == RarestFirst{}.Name())
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d, %s, budget %d of %d candidates:\nheap   %+v\nsorted %+v",
						trial, p.Name(), budget, len(in.Candidates), got, want)
				}
				assigned += len(got)
			}
		}
		if trial%7 == 0 {
			sc.Reset()
		}
	}
	if ties == 0 || assigned == 0 {
		t.Fatalf("%d priority ties, %d requests: the inputs exercised no tie-break", ties, assigned)
	}
}
