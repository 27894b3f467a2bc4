package prefetch

import (
	"slices"

	"continustreaming/internal/dht"
	"continustreaming/internal/segment"
)

// Directory answers what Algorithm 2's routed messages discover at the arc
// owner: whether it holds the wanted segment in its VoD backup, and the
// sending rate it can spare for a direct UDP transfer.
type Directory interface {
	HasBackup(node dht.ID, id segment.ID) bool
	AvailableRate(node dht.ID) float64
}

// LookupResult describes the k-way location of one missed segment.
type LookupResult struct {
	ID segment.ID
	// Supplier is the chosen backup holder; Found reports whether any of
	// the k owners held the segment with positive spare rate.
	Supplier dht.ID
	Rate     float64
	Found    bool
	// Held reports whether any located owner held the segment at all,
	// spare rate or not: it separates replica loss (!Held) from capacity
	// exhaustion (Held && !Found) in the failure telemetry.
	Held bool
	// RoutingMessages counts every routed hop across the k parallel
	// lookups plus the final direct request, for the pre-fetch overhead
	// metric (§5.3 estimates k·(log n/2 + 1) + 1 messages).
	RoutingMessages int
	// LocateHops is the hop count of the walk that reached the chosen
	// supplier, used to compute the fetch completion time.
	LocateHops int
	// Owners lists the distinct arc owners that were successfully located,
	// whether or not they held the segment (visible for diagnostics).
	Owners []dht.ID
}

// Walk is one replica lookup's routed outcome, packed to eight bytes: the
// round pipeline holds a whole round's walks (tens of thousands at 8000
// nodes) between its route and choose stages.
type Walk struct {
	owner int32 // the arc owner reached, -1 when routing failed
	hops  int32
}

// Scratch is reusable per-caller state for Choose: the result slice and
// the arena backing every LookupResult.Owners. Zero value is ready to
// use. The reuse contract: results returned by Choose (including their
// Owners slices) are valid only until the next Choose call through the
// same Scratch — long-lived owners thread one Scratch through a round and
// consume each node's results before choosing for the next.
type Scratch struct {
	owners  []dht.ID
	results []LookupResult
}

// Retriever executes Algorithm 2 against a DHT and a Directory, in two
// steps: RouteAll walks the DHT, Choose asks the located owners. The
// split lets a caller route for many nodes at once — walks only read the
// overlay — and keep the order-sensitive supplier choice sequential.
type Retriever struct {
	// Net is the DHT the hashed lookups walk.
	Net *dht.Network
	// Replicas is k, the number of hashed backup keys per segment.
	Replicas int
	Dir      Directory
	// Scratch makes Choose allocation-free in the steady state (see the
	// Scratch reuse contract). Nil is a fresh scratch per Choose call,
	// whose results are always safe to retain.
	Scratch *Scratch
}

// RouteAll runs the k hashed lookups of every missed segment from node
// from and appends their outcomes to dst, Replicas per segment in
// missed × replica-index order. It reads the Retriever's configuration
// and the DHT and writes only dst, so any number of RouteAll calls may
// run concurrently given a dst each.
func (r *Retriever) RouteAll(dst []Walk, from dht.ID, missed []segment.ID) []Walk {
	space := r.Net.Space()
	for _, id := range missed {
		for i := 1; i <= r.Replicas; i++ {
			route := r.Net.RouteTo(from, dht.HashKey(space, id, i), nil)
			w := Walk{owner: -1, hops: int32(route.Hops)}
			if route.Success {
				w.owner = int32(route.Final)
			}
			dst = append(dst, w)
		}
	}
	return dst
}

// Choose completes the lookups RouteAll started: for each missed segment
// it asks the owners its k walks reached and picks the one with the
// highest available sending rate among those that actually hold the
// segment. walks must be RouteAll's output for the same missed list.
// Determinism: replicas are probed in index order and ties broken toward
// the lower node ID. With a Scratch the returned slice and its Owners are
// reused by the next Choose call; copy anything that must outlive it.
func (r *Retriever) Choose(missed []segment.ID, walks []Walk) []LookupResult {
	sc := r.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	out := sc.results[:0]
	sc.owners = sc.owners[:0]
	for i, id := range missed {
		out = append(out, r.choose(sc, id, walks[i*r.Replicas:(i+1)*r.Replicas]))
	}
	sc.results = out[:0]
	return out
}

// choose resolves one segment from its k walks.
func (r *Retriever) choose(sc *Scratch, id segment.ID, walks []Walk) LookupResult {
	res := LookupResult{ID: id, Rate: 0}
	// Owners doubles as the dedup set (k is small). It is carved from the
	// grow-only arena with open capacity so appends land in the arena's
	// spare room; earlier results hold full-capacity subslices ending at
	// ownerStart, so those bytes are exclusively this lookup's.
	ownerStart := len(sc.owners)
	res.Owners = sc.owners[ownerStart:ownerStart]
	for _, w := range walks {
		res.RoutingMessages += int(w.hops)
		if w.owner < 0 {
			continue
		}
		owner := dht.ID(w.owner)
		if !slices.Contains(res.Owners, owner) {
			res.Owners = append(res.Owners, owner)
		}
		if !r.Dir.HasBackup(owner, id) {
			continue
		}
		res.Held = true
		rate := r.Dir.AvailableRate(owner)
		if rate <= 0 {
			continue
		}
		if !res.Found || rate > res.Rate || (rate == res.Rate && owner < res.Supplier) {
			res.Found = true
			res.Supplier = owner
			res.Rate = rate
			res.LocateHops = int(w.hops)
		}
	}
	slices.Sort(res.Owners)
	if len(res.Owners) > 0 {
		// The append above may have grown past the arena; fold the final
		// slice back so the next lookup carves after it. Full-capacity
		// subslicing keeps earlier results' Owners untouched either way.
		sc.owners = append(sc.owners[:ownerStart], res.Owners...)
		res.Owners = sc.owners[ownerStart:len(sc.owners):len(sc.owners)]
	}
	if res.Found {
		// The direct UDP request to the supplier is one more message.
		res.RoutingMessages++
	}
	return res
}
