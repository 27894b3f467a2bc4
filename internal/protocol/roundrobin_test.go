package protocol

import (
	"cmp"
	"slices"
	"testing"

	"continustreaming/internal/overlay"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// serveRoundRobinReference is the map-and-slices ServeRoundRobin the
// run-walking version replaced: it groups the sorted asks by requester into
// fresh per-requester slices and deals from them depth by depth.
func serveRoundRobinReference(reqs []Request, capacity int) ServeResult {
	var res ServeResult
	if capacity <= 0 {
		res.Evicted.Overflow = int64(len(reqs))
		return res
	}
	slices.SortStableFunc(reqs, func(a, b Request) int {
		if a.Requester != b.Requester {
			return cmp.Compare(a.Requester, b.Requester)
		}
		if a.Expected != b.Expected {
			return cmp.Compare(a.Expected, b.Expected)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	perRequester := make(map[overlay.NodeID][]Request)
	var order []overlay.NodeID
	for _, r := range reqs {
		if _, ok := perRequester[r.Requester]; !ok {
			order = append(order, r.Requester)
		}
		perRequester[r.Requester] = append(perRequester[r.Requester], r)
	}
	served := 0
	for depth := 0; served < capacity; depth++ {
		progressed := false
		for _, req := range order {
			q := perRequester[req]
			if depth >= len(q) {
				continue
			}
			progressed = true
			if served >= capacity {
				break
			}
			served++
			res.Granted = append(res.Granted, q[depth])
		}
		if !progressed {
			break
		}
	}
	res.Evicted.Overflow = int64(len(reqs) - len(res.Granted))
	return res
}

// randomAsks draws n asks from requesters distinct requesters. Expected
// times come from a range of a few values so equal-Expected ties are
// common, and (requester, ID) pairs may repeat.
func randomAsks(rng *sim.RNG, n, requesters int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Requester: overlay.NodeID(1 + rng.Intn(requesters)),
			ID:        segment.ID(rng.Intn(3 * n)),
			Expected:  sim.Time(rng.Intn(4)),
		}
	}
	return reqs
}

// TestServeRoundRobinMatchesReference holds ServeRoundRobin to the
// map-based reference: the same grants in the same order and the same
// evictions, on random ask sets with equal-Expected ties, a single
// requester, capacity 0 and capacity at or past the ask count, with the
// grant buffer threaded through every call.
func TestServeRoundRobinMatchesReference(t *testing.T) {
	rng := sim.DeriveRNG(7, 0x5e27e)
	var granted []Request
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		requesters := 1 + rng.Intn(8)
		if trial%5 == 0 {
			requesters = 1
		}
		var capacity int
		switch trial % 4 {
		case 0:
			capacity = 0
		case 1:
			capacity = n + rng.Intn(3)
		default:
			capacity = rng.Intn(n + 1)
		}
		reqs := randomAsks(rng, n, requesters)
		ref := serveRoundRobinReference(slices.Clone(reqs), capacity)
		got := ServeRoundRobin(reqs, capacity, granted)
		granted = got.Granted
		if len(got.Granted) != len(ref.Granted) || (len(ref.Granted) > 0 && !slices.Equal(got.Granted, ref.Granted)) {
			t.Fatalf("trial %d (%d asks, %d requesters, capacity %d): granted %+v, reference %+v",
				trial, n, requesters, capacity, got.Granted, ref.Granted)
		}
		if got.Evicted != ref.Evicted || len(got.Queued) != 0 {
			t.Fatalf("trial %d: evicted %+v queued %d, reference evicted %+v",
				trial, got.Evicted, len(got.Queued), ref.Evicted)
		}
	}
}

// TestServeRoundRobinAllocatesNothing: with a warm grant buffer, a call
// allocates nothing.
func TestServeRoundRobinAllocatesNothing(t *testing.T) {
	asks := randomAsks(sim.DeriveRNG(7, 0xa110c), 64, 6)
	reqs := make([]Request, len(asks))
	granted := make([]Request, 0, len(asks))
	if avg := testing.AllocsPerRun(100, func() {
		copy(reqs, asks)
		granted = ServeRoundRobin(reqs, 40, granted).Granted
	}); avg != 0 {
		t.Fatalf("ServeRoundRobin: %.1f allocs per call with a warm grant buffer, want 0", avg)
	}
}
