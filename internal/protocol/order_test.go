package protocol

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"continustreaming/internal/overlay"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// orderReference is the service order as it was computed before the sort
// ran on precomputed keys: a stable sort of whole Requests under the
// five-key comparator.
func orderReference(reqs []Request) {
	slices.SortStableFunc(reqs, func(a, b Request) int {
		if a.Deadline != b.Deadline {
			return cmp.Compare(a.Deadline, b.Deadline)
		}
		if a.Rarity != b.Rarity {
			return cmp.Compare(b.Rarity, a.Rarity)
		}
		if a.Carried != b.Carried {
			if a.Carried {
				return -1
			}
			return 1
		}
		if a.Requester != b.Requester {
			return cmp.Compare(a.Requester, b.Requester)
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// randomRequests draws n requests from small value pools, so every key
// ties often: few deadlines, a handful of rarities (the signed zeros,
// infinities and NaN among them), few requesters and segments, and
// duplicated asks. Expected is drawn freely: it is no key, so only the
// permutation can put it in place.
func randomRequests(rng *rand.Rand, n int) []Request {
	rarities := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 1, 1e-300, -0.5, math.Inf(1), math.Inf(-1), math.NaN()}
	reqs := make([]Request, 0, n)
	for len(reqs) < n {
		if len(reqs) > 0 && rng.Intn(6) == 0 {
			reqs = append(reqs, reqs[rng.Intn(len(reqs))]) // a duplicated ask
			continue
		}
		r := Request{
			Requester: overlay.NodeID(rng.Intn(5)),
			ID:        segment.ID(rng.Intn(8)),
			Deadline:  sim.Time(rng.Intn(4) * 1000),
			Rarity:    rarities[rng.Intn(len(rarities))],
			Expected:  sim.Time(rng.Int63()),
			Carried:   rng.Intn(2) == 0,
		}
		if rng.Intn(3) == 0 {
			r.Rarity = rng.Float64() // an untied rarity now and then
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// TestOrderMatchesStableComparator holds orderScratch.order to the retired
// stable comparator sort over random requests of every size the insertion
// and quicksort paths take, compared field by field (NaN equal to NaN) so
// the Expected each request carries must travel with it.
func TestOrderMatchesStableComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var o orderScratch
	for trial := 0; trial < 3000; trial++ {
		reqs := randomRequests(rng, rng.Intn(80))
		want := slices.Clone(reqs)
		orderReference(want)
		got := slices.Clone(reqs)
		if trial%2 == 0 {
			new(orderScratch).order(got)
		} else {
			o.order(got) // the reused scratch PlanServe sorts through
		}
		for i := range want {
			g, w := got[i], want[i]
			if math.IsNaN(g.Rarity) && math.IsNaN(w.Rarity) {
				g.Rarity, w.Rarity = 0, 0
			}
			if g != w || math.Signbit(got[i].Rarity) != math.Signbit(want[i].Rarity) {
				t.Fatalf("trial %d, %d requests: position %d is %+v, the stable comparator puts %+v there",
					trial, len(reqs), i, got[i], want[i])
			}
		}
	}
}

// TestPlanServeRarityOncePerSegment requires PlanServe to evaluate
// ServeInput.Rarity once per distinct segment a call attaches rarity to —
// carried survivors and fresh asks alike, many requesters asking for one
// segment — and to attach to every request the rarity a per-ask
// evaluation gives it.
func TestPlanServeRarityOncePerSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc ServeScratch
	for trial := 0; trial < 200; trial++ {
		in := randomServeInput(rng, trial)
		calls := map[segment.ID]int{}
		in.Rarity = func(id segment.ID) float64 {
			calls[id]++
			return serveRarity(id)
		}
		PlanServe(in, &sc)

		attached := map[segment.ID]bool{}
		for _, r := range sc.reqs { // every request PlanServe attached a rarity to
			attached[r.ID] = true
			if r.Rarity != serveRarity(r.ID) {
				t.Fatalf("trial %d: segment %d served with rarity %v, per-ask evaluation %v", trial, r.ID, r.Rarity, serveRarity(r.ID))
			}
		}
		evaluated := sortedKeys(calls)
		for _, id := range evaluated {
			if calls[id] != 1 {
				t.Fatalf("trial %d: Rarity evaluated %d times for segment %d", trial, calls[id], id)
			}
		}
		if !reflect.DeepEqual(evaluated, sortedKeys(attached)) {
			t.Fatalf("trial %d: Rarity evaluated for %v, attached to %v", trial, evaluated, attached)
		}

		// The same input through the retired per-ask evaluation and stable
		// sort reaches the same decision.
		in.Rarity = serveRarity
		if got, want := PlanServe(in, &sc), planServeReference(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: served %+v, the per-ask reference %+v", trial, got, want)
		}
	}
}

// TestPlanServeQueueIntoAliasesCarried holds PlanServe to the reference
// decision when the carry queue is rebuilt in its own storage — QueueInto
// is Carried[:0], as both runtimes pass it — so writing Queued can never
// clobber a carried request before PlanServe has read it.
func TestPlanServeQueueIntoAliasesCarried(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc ServeScratch
	for trial := 0; trial < 200; trial++ {
		in := randomServeInput(rng, trial)
		want := planServeReference(in)
		in.Carried = slices.Clone(in.Carried)
		in.QueueInto = in.Carried[:0]
		got := PlanServe(in, &sc)
		if len(got.Queued) == 0 {
			got.Queued = nil // the reference queues into nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: served %+v in the carried storage, the reference %+v", trial, got, want)
		}
	}
}

// serveRarity is the supplier-side rarity randomServeInput's segments
// carry: distinct per segment, so the service order depends on it.
func serveRarity(id segment.ID) float64 { return 1 / float64(2+uint64(id)%1000003) }

// randomServeInput draws one supplier's round: up to 11 carried requests
// and 59 fresh asks from six requesters, with segments from a window, as
// both runtimes ask, on even trials, or scattered over the whole ID range
// on odd ones, so the rarity memo's table sees colliding slots.
func randomServeInput(rng *rand.Rand, trial int) ServeInput {
	pool := make([]segment.ID, 30)
	for i := range pool {
		pool[i] = segment.ID(100 + i)
		if trial%2 == 1 {
			pool[i] = segment.ID(rng.Uint64())
		}
	}
	var carried []Request
	for i := rng.Intn(12); i > 0; i-- {
		carried = append(carried, Request{
			Requester: overlay.NodeID(rng.Intn(6)),
			ID:        pool[rng.Intn(len(pool))],
			Deadline:  sim.Time(1000 + rng.Intn(3)*1000),
			Carried:   true,
		})
	}
	var fresh []Ask
	for i := rng.Intn(60); i > 0; i-- {
		fresh = append(fresh, Ask{
			Requester: overlay.NodeID(rng.Intn(6)),
			ID:        pool[rng.Intn(len(pool))],
			Deadline:  sim.Time(1000 + rng.Intn(3)*1000),
		})
	}
	return ServeInput{
		Carried:        carried,
		Fresh:          fresh,
		Capacity:       rng.Intn(len(carried) + len(fresh) + 1),
		QueueCap:       8,
		Horizon:        1500,
		SupplierHas:    func(id segment.ID) bool { return id%7 != 0 },
		RequesterAlive: func(r overlay.NodeID) bool { return r != 5 },
		RequesterHas:   func(r overlay.NodeID, id segment.ID) bool { return int(r)+int(id)%5 == 0 },
		Rarity:         serveRarity,
	}
}

// planServeReference is PlanServe as it was before the rarity memo and the
// keyed sort: Rarity evaluated for every surviving request, the service
// order by the stable comparator sort.
func planServeReference(in ServeInput) ServeResult {
	var reqs []Request
	var stale int64
	for _, c := range in.Carried {
		if !in.RequesterAlive(c.Requester) || !in.SupplierHas(c.ID) || in.RequesterHas(c.Requester, c.ID) {
			stale++
			continue
		}
		c.Rarity = in.Rarity(c.ID)
		reqs = append(reqs, c)
	}
	carried := len(reqs)
	for _, a := range in.Fresh {
		if slices.ContainsFunc(reqs[:carried], func(c Request) bool { return c.ID == a.ID && c.Requester == a.Requester }) {
			continue
		}
		reqs = append(reqs, Request{Requester: a.Requester, ID: a.ID, Deadline: a.Deadline, Rarity: in.Rarity(a.ID)})
	}
	orderReference(reqs)
	res := ServeResult{Granted: reqs[:min(max(in.Capacity, 0), len(reqs))], Evicted: Evictions{Stale: stale}}
	for _, r := range reqs[len(res.Granted):] {
		switch {
		case r.Deadline <= in.Horizon:
			res.Evicted.Deadline++
		case len(res.Queued) >= in.QueueCap:
			res.Evicted.Overflow++
		default:
			r.Carried = true
			res.Queued = append(res.Queued, r)
		}
	}
	return res
}

func sortedKeys[V any](m map[segment.ID]V) []segment.ID {
	keys := make([]segment.ID, 0, len(m))
	//continulint:maporder the keys are sorted before use
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
