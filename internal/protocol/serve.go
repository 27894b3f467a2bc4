package protocol

import (
	"cmp"
	"slices"

	"continustreaming/internal/overlay"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// Order sorts requests into the supplier-side service order: earliest
// deadline first (the serve-side analogue of the requesting-priority
// urgency term — 1/slack is monotone in the deadline, so EDF and
// descending equation-(1) urgency agree), rarest first among equal
// deadlines, carried-before-new among equal rarities (a queued request
// has already waited a round), then (requester, segment) for full
// determinism.
func Order(reqs []Request) {
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

// Evictions classifies the requests a supplier abandoned this round.
type Evictions struct {
	// Deadline counts requests evicted because carrying them would be
	// pointless: they could not be served before their deadline.
	Deadline int64
	// Overflow counts requests evicted because the bounded carry queue
	// was full of earlier-deadline work (for the baseline round-robin
	// discipline, which has no queue, every capacity drop lands here).
	Overflow int64
	// Stale counts requests overtaken by membership or buffer drift:
	// the requester died, the segment left the supplier's buffer while
	// queued, the requester already obtained the segment elsewhere, or
	// the supplier itself died or lost its outbound with asks addressed
	// to it.
	Stale int64
}

// Total sums all eviction classes.
func (e Evictions) Total() int64 { return e.Deadline + e.Overflow + e.Stale }

// Add accumulates another supplier's evictions.
func (e *Evictions) Add(o Evictions) {
	e.Deadline += o.Deadline
	e.Overflow += o.Overflow
	e.Stale += o.Stale
}

// ServeResult is the outcome of one supplier's scheduling period.
type ServeResult struct {
	// Granted are the requests transmitted this round, in service order.
	Granted []Request
	// Queued are the requests carried to the next round, in deadline
	// order.
	Queued []Request
	// Evicted classifies the abandoned remainder.
	Evicted Evictions
}

// serve runs one supplier's earliest-deadline-first service discipline.
// capacity is how many segments the supplier can still transmit within
// its backlog horizon this round; queueCap bounds the carry queue; any
// request beyond both that cannot arrive after horizon (the end of the
// current round) in time for its deadline is evicted rather than carried.
// reqs is reordered in place; the carry queue is appended to queued (from
// length zero; nil allocates fresh).
func serve(reqs []Request, capacity, queueCap int, horizon sim.Time, queued []Request) ServeResult {
	Order(reqs)
	res := ServeResult{Queued: queued[:0]}
	if capacity < 0 {
		capacity = 0
	}
	if capacity > len(reqs) {
		capacity = len(reqs)
	}
	res.Granted = reqs[:capacity]
	for _, r := range reqs[capacity:] {
		if r.Deadline <= horizon {
			// Next-round service arrives after the deadline: abandoning
			// now lets the requester's pending state expire and the
			// urgent-line rescue path take over.
			res.Evicted.Deadline++
			continue
		}
		if len(res.Queued) >= queueCap {
			res.Evicted.Overflow++
			continue
		}
		q := r
		q.Carried = true
		res.Queued = append(res.Queued, q)
	}
	return res
}

// Ask is one fresh requester→supplier ask as it arrives at the supplier,
// before the serve plan attaches deadlines and rarity.
type Ask struct {
	Requester overlay.NodeID
	ID        segment.ID
	Deadline  sim.Time
}

// ServeInput is everything one supplier's engine-profile serve decision
// depends on, expressed as explicit views so both runtimes can build it:
// the simulator from its nodes' buffers, read in place, livenet from the
// buffer maps its peers announced in messages.
type ServeInput struct {
	// Carried is the supplier's carry queue from the previous round (in
	// stored order); Fresh this round's new asks (in arrival order).
	Carried []Request
	Fresh   []Ask
	// Capacity is how many grants the supplier can transmit within its
	// backlog horizon this round: its Uplink's Spare();
	// QueueCap bounds the carry queue; Horizon is the end of the current
	// round (deadlines at or before it cannot be saved by queueing).
	Capacity int
	QueueCap int
	Horizon  sim.Time
	// SupplierHas reports whether the supplier still holds a segment.
	SupplierHas func(segment.ID) bool
	// RequesterAlive reports whether a requester is still a live peer.
	RequesterAlive func(overlay.NodeID) bool
	// RequesterHas reports whether a requester's advertised buffer map
	// already shows a segment (it obtained it elsewhere meanwhile).
	RequesterHas func(overlay.NodeID, segment.ID) bool
	// Rarity evaluates the supplier-side rarity of a segment over the
	// supplier's own neighbours' advertised maps (SupplierRarity).
	Rarity func(segment.ID) float64
	// QueueInto, when non-nil, is the storage the result's Queued is
	// appended to (from length zero) instead of a fresh slice: a caller
	// that owns a single carry queue — a livenet peer — alternates two
	// buffers between Carried and QueueInto and never allocates. It must
	// not alias Carried.
	QueueInto []Request
}

// ServeScratch is PlanServe's reusable working storage: one grow-only
// request buffer a caller serving many suppliers (the simulator's serve
// shards, a livenet peer across periods) recycles instead of
// reallocating. A result's Granted slice aliases the scratch, so it is
// valid only until the next PlanServe call through the same scratch —
// exactly the consume-immediately lifetime both runtimes have. Queued is
// never scratch-backed: it outlives the call inside carry queues (a caller
// recycling its own queue storage passes ServeInput.QueueInto).
type ServeScratch struct {
	reqs []Request
}

// PlanServe runs one supplier's full engine-profile scheduling period as
// a pure decision: revalidate the carry queue against membership and
// buffer drift, merge the surviving entries with this round's fresh asks
// (re-asks that match a carried twin are deduplicated into it), attach
// supplier-side rarity, and run the earliest-deadline-first service
// discipline with bounded carry. Both the simulator's serveSupplier
// driver and the livenet peer serve path call it — the decision is the
// shared protocol; only the input assembly differs. See ServeScratch for
// the aliasing contract.
func PlanServe(in ServeInput, sc *ServeScratch) ServeResult {
	reqs := sc.reqs[:0]
	var stale int64
	for _, c := range in.Carried {
		// Revalidate: the requester may have died, the segment may have
		// slid out of the supplier's buffer while queued, or the
		// requester may have obtained the segment elsewhere meanwhile
		// (push, prefetch rescue, a retry at another supplier) — its
		// current buffer map says so, and serving it anyway
		// would burn a grant slot on repeated data. Only survivors join
		// the dedupe prefix — a fresh re-ask that matches a stale entry
		// must not be swallowed with it.
		if !in.RequesterAlive(c.Requester) || !in.SupplierHas(c.ID) {
			stale++
			continue
		}
		if in.RequesterHas(c.Requester, c.ID) {
			stale++
			continue
		}
		reqs = append(reqs, c)
	}
	carried := len(reqs)
	for i := range reqs {
		reqs[i].Rarity = in.Rarity(reqs[i].ID)
	}
	for _, a := range in.Fresh {
		// The surviving carried entries form the dedupe set: a fresh
		// re-ask matching one merges into its queued twin and shares its
		// fate (served or evicted), deliberately counted once in the
		// eviction telemetry. Carry queues are bounded and small, so the
		// prefix scan beats building a map.
		dup := false
		for i := 0; i < carried; i++ {
			if reqs[i].ID == a.ID && reqs[i].Requester == a.Requester {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		reqs = append(reqs, Request{
			Requester: a.Requester,
			ID:        a.ID,
			Deadline:  a.Deadline,
			Rarity:    in.Rarity(a.ID),
		})
	}
	sc.reqs = reqs
	res := serve(reqs, in.Capacity, in.QueueCap, in.Horizon, in.QueueInto)
	res.Evicted.Stale += stale
	return res
}

// ServeRoundRobin is the baseline supplier discipline the engine
// replaces, kept for profiles without the dissemination engine: a real
// pull-only supplier transmits to its requesters' connections
// concurrently, so service interleaves round-robin across requesters
// (each requester's own asks stay in its expected-time priority order)
// up to the capacity, and everything beyond is dropped for the requester
// to time out and retry. reqs is reordered in place. The grants are
// appended to granted from length zero (nil allocates fresh), so a caller
// serving many suppliers threads one buffer through and the result's
// Granted aliases it until the next call.
func ServeRoundRobin(reqs []Request, capacity int, granted []Request) ServeResult {
	res := ServeResult{Granted: granted[:0]}
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
	// Each requester's asks are now one contiguous run in priority order,
	// runs by ascending requester: pass depth grants every run's depth-th
	// ask, until the capacity is spent or no run is that long.
	for depth := 0; len(res.Granted) < capacity; depth++ {
		progressed := false
		for start := 0; start < len(reqs) && len(res.Granted) < capacity; {
			end := start + 1
			for end < len(reqs) && reqs[end].Requester == reqs[start].Requester {
				end++
			}
			if depth < end-start {
				progressed = true
				res.Granted = append(res.Granted, reqs[start+depth])
			}
			start = end
		}
		if !progressed {
			break
		}
	}
	res.Evicted.Overflow = int64(len(reqs) - len(res.Granted))
	return res
}
