package protocol

import (
	"cmp"
	"math"
	"slices"

	"continustreaming/internal/overlay"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// orderKey is one request's place in the service order, computed once so
// the sort compares flat integers instead of whole Requests: deadline,
// rarity (rarityKey), carried first, requester, segment, and last the
// request's input index, which makes the order total — any sort of the
// keys lands exactly where a stable sort of the requests would.
type orderKey struct {
	deadline  sim.Time
	rarity    uint64
	requester overlay.NodeID
	id        segment.ID
	at        int32
	fresh     bool
}

// rarityKey maps a rarity to an integer that ascends in service order:
// rarer (larger) first. -0 and +0 share a key, as they compare equal; NaN
// sorts after every number and ties every other NaN, so among equal
// deadlines NaN-rarity requests keep their input order — what the
// comparator Order implements did with them.
func rarityKey(r float64) uint64 {
	if r != r {
		return nanRarity
	}
	if r == 0 {
		r = 0
	}
	b := math.Float64bits(r)
	if b>>63 != 0 {
		return b // negative: the larger the magnitude, the later
	}
	return ^b &^ (1 << 63) // non-negative: the larger, the earlier
}

// nanRarity is rarityKey's NaN.
const nanRarity = math.MaxUint64

// before reports whether a precedes b in the service order.
func (a *orderKey) before(b *orderKey) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.rarity != b.rarity {
		return a.rarity < b.rarity
	}
	if a.fresh != b.fresh {
		return b.fresh
	}
	if a.requester != b.requester {
		return a.requester < b.requester
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.at < b.at
}

// orderScratch is the service order's reusable working storage: the keys
// and the merge buffer.
type orderScratch struct {
	keys, buf []orderKey
}

// order sorts reqs in place into the supplier-side service order:
// earliest deadline first (the serve-side analogue of the
// requesting-priority urgency term — 1/slack is monotone in the deadline,
// so EDF and descending equation-(1) urgency agree), rarest first among
// equal deadlines, carried-before-new among equal rarities (a queued
// request has already waited a round), then (requester, segment) for full
// determinism. Requests equal on all five keys keep their input order.
func (o *orderScratch) order(reqs []Request) {
	if len(reqs) > math.MaxInt32 {
		panic("protocol: too many requests to order")
	}
	n := len(reqs)
	o.keys = slices.Grow(o.keys[:0], n)[:n]
	o.buf = slices.Grow(o.buf[:0], n)[:n]
	keys := o.keys
	for i := range reqs {
		r := &reqs[i]
		keys[i] = orderKey{deadline: r.Deadline, rarity: rarityKey(r.Rarity), at: int32(i)}
		if keys[i].rarity != nanRarity {
			// NaN rarity ends the comparison: only the index breaks its ties.
			keys[i].requester, keys[i].id, keys[i].fresh = r.Requester, r.ID, !r.Carried
		}
	}
	sortKeys(keys, o.buf)
	// Position i takes the request keys[i].at names. The permutation is
	// applied cycle by cycle, each key marked done (at = its position) as
	// its request lands.
	for i := range keys {
		if int(keys[i].at) == i {
			continue
		}
		first, j := reqs[i], i
		for {
			k := int(keys[j].at)
			keys[j].at = int32(j)
			if k == i {
				reqs[j] = first
				break
			}
			reqs[j] = reqs[k]
			j = k
		}
	}
}

// sortKeys sorts keys by before, through buf of the same length: insertion
// sort over short runs, then bottom-up merges, O(n log n) on any input
// with the comparison inlined. The keys are distinct, so any correct sort
// lands on the one order.
func sortKeys(keys, buf []orderKey) {
	const run = 12
	n := len(keys)
	for lo := 0; lo < n; lo += run {
		hi := min(lo+run, n)
		for i := lo + 1; i < hi; i++ {
			k, j := keys[i], i
			for ; j > lo && k.before(&keys[j-1]); j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
	}
	src, dst := keys, buf
	for width := run; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				if j == hi || i < mid && src[i].before(&src[j]) {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
			}
		}
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &keys[0] {
		copy(keys, src)
	}
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
// reqs is reordered in place through o; the carry queue is appended to
// queued (from length zero; nil allocates fresh).
func serve(reqs []Request, capacity, queueCap int, horizon sim.Time, queued []Request, o *orderScratch) ServeResult {
	o.order(reqs)
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
	// appended to (from length zero) instead of a fresh slice. It may
	// alias Carried — PlanServe copies Carried into its scratch before it
	// writes Queued — so a caller that owns a carry queue passes that
	// queue's own storage, Carried[:0], and rebuilds it in place.
	QueueInto []Request
}

// ServeScratch is PlanServe's reusable working storage: one grow-only
// request buffer, the service-order keys, and the rarity memo, which a
// caller serving many suppliers (the simulator's serve shards, a livenet
// peer across periods) recycles instead of reallocating. A result's
// Granted slice aliases the scratch, so it is valid only until the next
// PlanServe call through the same scratch — exactly the
// consume-immediately lifetime both runtimes have. Queued is never
// scratch-backed: it outlives the call inside carry queues (a caller
// recycling its own queue storage passes ServeInput.QueueInto).
type ServeScratch struct {
	reqs   []Request
	order  orderScratch
	rarity rarityMemo
}

// rarityMemo remembers, for one PlanServe call, which request first
// carried each segment, so ServeInput.Rarity is evaluated once per
// distinct segment and later requests copy that request's Rarity: an
// open-addressed table of request indices keyed by segment, at most half
// full, stamped with the call's epoch so no call has to clear it.
type rarityMemo struct {
	at    []int32
	stamp []uint32
	epoch uint32
	shift uint
}

// begin opens the memo for a call evaluating at most n distinct segments.
func (m *rarityMemo) begin(n int) {
	bits := uint(4)
	for 1<<bits < 2*n {
		bits++
	}
	if 1<<bits > len(m.at) {
		m.at = make([]int32, 1<<bits)
		m.stamp = make([]uint32, 1<<bits)
		m.epoch = 0
	}
	for 1<<bits < len(m.at) {
		bits++
	}
	m.shift = 64 - bits
	m.epoch++
	if m.epoch == 0 { // wrapped: stamps from the old era could alias
		clear(m.stamp)
		m.epoch = 1
	}
}

// get returns the rarity of reqs[i]'s segment: the Rarity of the first
// request for it this call, or, for the first, rarity's answer, which the
// caller stores in reqs[i].Rarity before the next get.
func (m *rarityMemo) get(reqs []Request, i int, rarity func(segment.ID) float64) float64 {
	id := reqs[i].ID
	mask := uint64(len(m.at) - 1)
	for s := uint64(id) * 0x9e3779b97f4a7c15 >> m.shift; ; s = (s + 1) & mask {
		if m.stamp[s] != m.epoch {
			m.at[s], m.stamp[s] = int32(i), m.epoch
			return rarity(id)
		}
		if r := &reqs[m.at[s]]; r.ID == id {
			return r.Rarity
		}
	}
}

// PlanServe runs one supplier's full engine-profile scheduling period as
// a pure decision: revalidate the carry queue against membership and
// buffer drift, merge the surviving entries with this round's fresh asks
// (re-asks that match a carried twin are deduplicated into it), attach
// supplier-side rarity — evaluated once per distinct segment — and run
// the earliest-deadline-first service discipline with bounded carry.
// Both the simulator's serveSupplier and the livenet peer's serve path
// call it — the decision is the shared protocol; only the input
// assembly differs. See ServeScratch for the aliasing contract.
func PlanServe(in ServeInput, sc *ServeScratch) ServeResult {
	reqs := sc.reqs[:0]
	sc.rarity.begin(len(in.Carried) + len(in.Fresh))
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
		reqs[len(reqs)-1].Rarity = sc.rarity.get(reqs, len(reqs)-1, in.Rarity)
	}
	carried := len(reqs)
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
		reqs = append(reqs, Request{Requester: a.Requester, ID: a.ID, Deadline: a.Deadline})
		reqs[len(reqs)-1].Rarity = sc.rarity.get(reqs, len(reqs)-1, in.Rarity)
	}
	sc.reqs = reqs
	res := serve(reqs, in.Capacity, in.QueueCap, in.Horizon, in.QueueInto, &sc.order)
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
