package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"continustreaming/internal/dht"
	"continustreaming/internal/metrics"
	"continustreaming/internal/overlay"
	"continustreaming/internal/prefetch"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// roundArena is one ownership shard's reusable round-lived scratch, plus
// the one list that outlives a round: the shard's in-flight deliveries
// (later). Its scratch buffers are grow-only: phases reset slices to [:0]
// (or compact in place) instead of reallocating, so after warm-up the
// round pipeline's recurring transients cost no allocation at all.
//
// Of the round's three many-to-many exchanges, two are reads in place:
// a node pulls the membership-gossip picks its neighbours drew for it
// from their shards' gossip rows, and a supplier pulls the asks addressed
// to it from its neighbours' scheduled requests (Node.asks). Neighbour
// lists are symmetric and name only alive nodes, so a node's neighbours
// are exactly the nodes that can have produced something for it. The
// third, grants back to receivers, passes between shards as one hand-off
// list per serve shard (deliverScatter), ordered by receiver shard, and
// the apply stage regroups what it receives into applyBucket. Those two
// lists are not grow-only: each round lays them out at the size it needs
// and carves them from the world's roundLists pools, so what they hold
// follows the world's load rather than every shard's busiest round.
//
// Ownership follows the shard rule everywhere else in the pipeline: only
// the shard that owns arena index s (or sequential phase code between
// parallel sections) may touch w.arenas[s]. Results carved from an arena
// (rewire intents, gossip rows) stay valid until the owning phase runs
// again in the next round, which is exactly as long as their consumers
// need them.
type roundArena struct {
	// nodes is this shard's work list: the alive IDs it owns, ascending.
	// rebuildOrder rebuilds it with the world's order, so it holds from
	// one membership change to the next: every parallel phase of the
	// round walks it.
	nodes []overlay.NodeID

	// gossip holds the membership-gossip picks this shard's nodes drew in
	// maintenance stage 1, one row per (node, neighbour): nodes in
	// work-list order, each node's rows in its neighbour order.
	// gossipAt[rank] and gossipAt[rank+1] bound the rows of the node with
	// that shard rank (World.shardRank), so a hearing neighbour finds them
	// without touching the node (pulledHears).
	gossip   []gossipRow
	gossipAt []int32

	// held is this shard's push frontier: the (holder, segment, ready-at)
	// entries the next push hop forwards, holders ascending and each
	// holder's run in arrival order once pushHop has sorted it, and
	// empty between push phases. sends is the hop's planned sends, segs
	// one pusher's segment list and push the scratch its plan is made on
	// (protocol.PushScratch).
	held  []pushSeg
	sends []pushSend
	segs  []segment.ID
	push  protocol.PushScratch

	// provider is the shard's reusable maintenance view provider,
	// re-pointed at each node in turn.
	provider maintenanceProvider

	// rewire is the PlanRewire scratch: pool buffers plus the intent
	// arena that backs every planned Drop/Adopt until stage 3 applies
	// them.
	rewire protocol.RewireScratch

	// intents collects this shard's planned rewires for the sequential
	// apply stage.
	intents []protocol.RewireIntent

	// deliverScatter is the serve stage's hand-off list of grants:
	// deliverScatter.to(s) holds the transfers this supplier shard granted
	// to receivers owned by shard s, alive until the round's apply phase
	// reads them.
	deliverScatter handoff

	// later holds the deliveries in flight to this ownership shard's
	// receivers that no serve shard hands over this round: transfers that
	// spilled past an earlier round's boundary, the push phase's late
	// copies and the pre-fetch claim stage's transfers (the latter two
	// appended from sequential code). The apply stage moves the due ones
	// into applyBucket and compacts the rest in place; churn drops those
	// addressed to departed nodes.
	later []delivery

	// asksTo counts, per supplier shard, the asks this shard's nodes
	// scheduled this round, and carryTo, per receiver shard, the requests
	// they carry into it: the schedule phase's tallies that size the
	// serve phase's grant hand-off.
	asksTo, carryTo [phaseShards]int32

	// planAsks and rrReqs stage one supplier's fresh asks (pullAsks) for
	// PlanServe / ServeRoundRobin, and rrGranted backs the latter's
	// grants; serve is the PlanServe request scratch; sctx backs the
	// hoisted ServeInput callbacks (one closure set per shard, fields
	// re-pointed per supplier).
	planAsks  []protocol.Ask
	rrReqs    []protocol.Request
	rrGranted []protocol.Request
	serve     protocol.ServeScratch
	sctx      serveCtx

	// applyBucket holds the deliveries this ownership shard's receivers
	// take in this round, collected by the shard itself, grouped by
	// receiver and applied shard-locally (eachReceiverRun).
	applyBucket []delivery

	// groupCnt is the counting-sort table of the apply stage's
	// group-by-receiver pass, one slot per ring ID this shard owns,
	// indexed by World.shardRank. All zero between uses.
	groupCnt []int32

	// sched is the schedule phase's scratch: the policy scratch whose
	// request arena backs the round's scheduler output, plus the
	// candidate enumeration and its neighbour-word list, reset per node.
	sched    scheduler.Scratch
	candLive []scheduler.NeighborWords
	enum     scheduler.Enumeration

	// plans holds the Urgent Line's decision for each work-list node,
	// aligned with nodes; predictIDs is the missed-ID arena their lists
	// are carved from (capacity-capped, alive until resolvePrefetch
	// consumes them); predict backs the hoisted exclusion callback.
	plans      []prefetch.Decision
	predictIDs []segment.ID
	predict    predictCtx

	// walks holds the pre-fetch route stage's outcomes for this shard's
	// plans — work-list × segment × replica order, consumed by the claim
	// stage in the same round.
	walks []prefetch.Walk

	// counts is this shard's partial of the round's metric counters: a
	// counting phase (serve, apply, playback) resets it, fills it from its
	// shard's own nodes, and World.foldCounts adds it into the round's
	// sample in ascending shard order.
	counts metrics.RoundSample
}

// foldCounts adds every shard's counts into sample in ascending shard
// order. Sequential code only, after a counting phase's ForShards.
func (w *World) foldCounts(sample *metrics.RoundSample) {
	for s := range w.arenas {
		sample.Add(w.arenas[s].counts)
	}
}

// handoff is one serve shard's list of the round's grants, in CSR form:
// recs[off[d]:end[d]] are its grants to receivers owned by shard d, in
// emission order. A round lays the list out before filling it — the serve
// shard reserves an upper bound per destination, then layout carves recs
// from the grant pool and turns the reservations into offsets — so each
// destination's grants sit contiguously however the shard interleaves
// them, and a bound that was not reached leaves a hole at the segment's
// end that no reader sees.
type handoff struct {
	recs []delivery
	off  [phaseShards + 1]int32
	// end is each segment's fill cursor; between clearBounds and layout it
	// accumulates the reservations instead.
	end [phaseShards]int32
}

// clearBounds opens a new round's reservations.
func (h *handoff) clearBounds() { clear(h.end[:]) }

// reserve adds n slots to destination d's segment (before layout only).
func (h *handoff) reserve(d int, n int32) { h.end[d] += n }

// put appends rec to destination d's segment. Filling a segment past what
// was reserved for it is a layout bug, and it panics rather than overwrite
// the next segment.
func (h *handoff) put(d int, rec delivery) {
	i := h.end[d]
	if i == h.off[d+1] {
		panic(fmt.Sprintf("core: hand-off segment for shard %d is full at its %d reserved slots", d, h.off[d+1]-h.off[d]))
	}
	h.recs[i] = rec
	h.end[d] = i + 1
}

// to returns the records destined for ownership shard d.
func (h *handoff) to(d int) []delivery { return h.recs[h.off[d]:h.end[d]] }

// pool is a world-level backing store of delivery records: each round,
// every shard's grant list (or grouped copy) is carved from its chunks.
// The world's total is far steadier than any one shard's share of it, so
// one pool holds close to what the round uses where 64 grow-only lists
// would each keep their own busiest round: at 2 000 nodes under churn,
// the shards' largest lists so far of the ask stream, which the grants
// followed, added up to 15–26 % more than a round's asks by round 30,
// while the largest total so far stayed within 6 % of it. A round whose
// layout does not fit adds one chunk, sized to what is left to carve plus
// an eighth of the round's total, and keeps the chunks it has: growing
// allocates the shortfall, not a new buffer for the whole stream.
type pool struct {
	chunks [][]delivery
	used   []int // records carved from each chunk this round
	total  int   // the round's layout, in records
	left   int   // records of it not carved yet
}

// open starts a round's layout of n records in total.
func (p *pool) open(n int) {
	clear(p.used)
	p.total, p.left = n, n
}

// take carves the next n records of the round's layout from the first
// chunk with room, capacity-capped so no append can run into the next
// carving.
func (p *pool) take(n int) []delivery {
	for c, chunk := range p.chunks {
		if u := p.used[c]; len(chunk)-u >= n {
			p.used[c] = u + n
			p.left -= n
			return chunk[u : u+n : u+n]
		}
	}
	p.chunks = append(p.chunks, make([]delivery, p.left+p.total/8))
	p.used = append(p.used, 0)
	return p.take(n)
}

// roundLists is the world's pool for the grant hand-off and for its
// grouped copy; sequential phase code carves them between the parallel
// stages.
type roundLists struct {
	grants pool // roundArena.deliverScatter
	due    pool // roundArena.applyBucket
}

// layout carves every serve shard's grant list from p once all of them
// have reserved their segments, and turns each shard's reservations into
// offsets with empty fill cursors. Sequential code only, between the
// reserving and the filling ForShards calls.
func layout(p *pool, arenas []roundArena) {
	total := 0
	for s := range arenas {
		for _, n := range arenas[s].deliverScatter.end {
			total += int(n)
		}
	}
	p.open(total)
	for s := range arenas {
		h := &arenas[s].deliverScatter
		at := int32(0)
		for d, n := range h.end {
			h.off[d], h.end[d] = at, at
			at += n
		}
		h.off[phaseShards] = at
		h.recs = p.take(int(at))
	}
}

// carveGroups sizes every shard's grouped copy (applyBucket) from p: shard
// s gets n[s] records. Sequential code only.
func carveGroups(p *pool, arenas []roundArena, n *[phaseShards]int) {
	total := 0
	for _, c := range n {
		total += c
	}
	p.open(total)
	for s := range arenas {
		arenas[s].applyBucket = p.take(n[s])
	}
}

// predictCtx carries the per-node state the hoisted Urgent Line exclusion
// callback reads. The closure is built once per shard (ensure) and
// captures only the ctx pointer; predictPhase re-points the fields for
// each node in turn.
type predictCtx struct {
	w     *World
	n     *Node
	pos   segment.ID
	p     int
	now   sim.Time
	round int

	exclude func(segment.ID) bool
}

// ensure builds the callback on first use.
func (c *predictCtx) ensure(w *World) {
	if c.exclude != nil {
		return
	}
	c.w = w
	c.exclude = func(id segment.ID) bool {
		deadline := c.w.deadlineOf(id, c.pos, c.p, c.now)
		return c.n.predictExcluded(id, c.round, c.now, deadline)
	}
}

// buildArenas sizes the per-shard arena table and wires each shard's
// provider to the world; NewWorld calls it once, after shardRanks.
func (w *World) buildArenas() {
	w.arenas = make([]roundArena, phaseShards)
	for s := range w.arenas {
		w.arenas[s].provider.w = w
		w.arenas[s].groupCnt = make([]int32, w.shardSize[s])
		w.arenas[s].gossipAt = make([]int32, w.shardSize[s]+1)
	}
}

// shardRanks numbers the ring IDs of each ownership shard 0, 1, 2, … in
// ascending ID order: rank[id] is id's number within shard shardOf(id),
// size[s] how many IDs shard s owns. The assignment depends only on the
// identifier space, so it is computed once per world. It is what lets a
// shard group its deliveries by receiver with a counting sort over a
// table as small as the shard (and private to it) rather than one slot
// per ring ID — within a shard, ascending rank is ascending ID — and
// index its nodes' gossip rows the same way.
func shardRanks(spaceN int) (rank []int32, size [phaseShards]int32) {
	rank = make([]int32, spaceN)
	for id := range rank {
		s := sim.ShardIndex(uint64(id), phaseShards)
		rank[id] = size[s]
		size[s]++
	}
	return rank, size
}

// startOffsets turns a counting-sort table of per-slot counts into
// per-slot start offsets in place and returns the total count.
func startOffsets(cnt []int32) int {
	total := int32(0)
	for k, c := range cnt {
		cnt[k] = total
		total += c
	}
	return int(total)
}

// countArrivals is the first pass of receiver shard s's apply hand-off: it
// counts, per receiver, the deliveries due by end in the shard's in-flight
// list and in what each serve shard granted its receivers, turns the
// counts into run offsets in groupCnt, and returns their total — the size
// of the grouped copy (applyBucket) eachReceiverRun fills. The sources are
// a cross-shard read of serve output, sequenced by the barrier between
// the serve and apply ForShards calls.
func countArrivals(arenas []roundArena, s int, rank []int32, end sim.Time) int {
	ar := &arenas[s]
	cnt := ar.groupCnt
	for _, d := range ar.later {
		if sim.Time(d.at) <= end {
			cnt[rank[d.to]]++
		}
	}
	for r := range arenas {
		for _, d := range arenas[r].deliverScatter.to(s) {
			if sim.Time(d.at) <= end {
				cnt[rank[d.to]]++
			}
		}
	}
	return startOffsets(cnt)
}

// eachReceiverRun hands receiver shard s its arrivals of the round ending
// at end, once countArrivals has counted them and applyBucket has been
// carved to their total: it calls fn once per receiver, receivers
// ascending, with that receiver's deliveries in canonical arrival order
// (timestamp, segment, sender, prefetch first) — the runs a sort of
// everything due by (receiver, timestamp, segment, sender, prefetch)
// would contain. Whatever lands after end stays in — or joins — the
// in-flight list, compacted in place. It is a counting sort straight
// from the sources into owner order: countArrivals counted,
// this pass places the due deliveries in applyBucket, and each run (about
// ten entries) is sorted where it lies. The order the sources are read in
// is free: compareArrival is a total order, so a receiver's sorted run is
// the same however its deliveries were assembled — which is what lets
// every shard collect its own without a sequential merge. Only shard s's
// apply stage calls it; run is valid only during the call.
func eachReceiverRun(arenas []roundArena, s int, rank []int32, end sim.Time, fn func(run []delivery)) {
	ar := &arenas[s]
	cnt := ar.groupCnt
	due := ar.applyBucket
	kept := ar.later[:0]
	for _, d := range ar.later {
		if sim.Time(d.at) > end {
			kept = append(kept, d)
			continue
		}
		k := rank[d.to]
		due[cnt[k]] = d
		cnt[k]++
	}
	for r := range arenas {
		for _, d := range arenas[r].deliverScatter.to(s) {
			if sim.Time(d.at) > end {
				kept = append(kept, d)
				continue
			}
			k := rank[d.to]
			due[cnt[k]] = d
			cnt[k]++
		}
	}
	ar.later = kept
	// cnt[k] is now the end of rank k's run, the previous rank's end its
	// start.
	lo := int32(0)
	for k, hi := range cnt {
		cnt[k] = 0
		if hi == lo {
			continue
		}
		run := due[lo:hi]
		lo = hi
		slices.SortFunc(run, compareArrival)
		fn(run)
	}
}

// compareArrival is one receiver's canonical arrival order: timestamp,
// segment, sender, and a pre-fetch ahead of a gossip copy.
func compareArrival(a, b delivery) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.id != b.id {
		return cmp.Compare(a.id, b.id)
	}
	if a.from != b.from {
		return cmp.Compare(a.from, b.from)
	}
	return btoi(b.prefetch) - btoi(a.prefetch)
}

// seg32 narrows a segment ID to a hand-off record's int32 field. At the
// default 10 segments per second the bound is 6.8 years of stream; past it
// the records cannot hold the ID, and the round stops rather than wrap.
func seg32(id segment.ID) int32 {
	if id < math.MinInt32 || id > math.MaxInt32 {
		panic(fmt.Sprintf("core: segment ID %d is past the int32 bound %d of a hand-off record", id, math.MaxInt32))
	}
	return int32(id)
}

// ms32 narrows a millisecond stamp to a hand-off record's int32 field; the bound is 24.8 days of simulated time.
func ms32(t sim.Time) int32 {
	if t < math.MinInt32 || t > math.MaxInt32 {
		panic(fmt.Sprintf("core: time %d ms is past the int32 bound %d ms of a hand-off record", int64(t), math.MaxInt32))
	}
	return int32(t)
}

// serveCtx carries the per-supplier state the hoisted ServeInput
// callbacks read. The closures are built once per shard (ensure) and
// capture only the ctx pointer; serveSupplier re-points the fields for
// each supplier in turn, so the per-supplier closure allocations the old
// inline literals paid are gone. Requesters' and neighbours' buffers are
// read in place through w.nodes; a nil entry is a node that died this round.
type serveCtx struct {
	w          *World
	sn         *Node
	neighbours []overlay.NodeID
	pos        segment.ID

	// nbWords holds the live neighbours' advertised availability words; the
	// rarity closure counts holders with one bit probe per neighbour word.
	nbWords [][]uint64

	supplierHas    func(segment.ID) bool
	requesterAlive func(overlay.NodeID) bool
	requesterHas   func(overlay.NodeID, segment.ID) bool
	rarity         func(segment.ID) float64
}

// prepRarity gathers the current supplier's live neighbours' buffer words.
// Every buffer shares the playback origin and window size (alignedWords),
// so a segment's position-from-tail is identical in each holder and rarity
// needs only a holder count.
func (c *serveCtx) prepRarity() {
	c.nbWords = c.nbWords[:0]
	for _, nb := range c.neighbours {
		if m := c.w.nodes[nb]; m != nil {
			c.nbWords = append(c.nbWords, c.w.alignedWords(&m.Buf, c.pos, c.sn.ID, nb))
		}
	}
}

// ensure builds the callback set on first use.
func (c *serveCtx) ensure(w *World) {
	if c.rarity != nil {
		return
	}
	c.w = w
	c.supplierHas = func(id segment.ID) bool { return c.sn.Buf.Has(id) }
	c.requesterAlive = func(id overlay.NodeID) bool { return c.w.nodes[id] != nil }
	c.requesterHas = func(id overlay.NodeID, seg segment.ID) bool {
		m := c.w.nodes[id]
		return m != nil && m.Buf.Has(seg)
	}
	c.rarity = func(id segment.ID) float64 {
		// Holder count via one bit probe per neighbour word; an ID outside
		// the shared window has no holders and keeps the empty product's 1.
		size := c.w.cfg.BufferSegments
		count := 0
		i := int(id - c.pos)
		if i >= 0 && i < size {
			wi, bit := i>>6, uint64(1)<<(uint(i)&63)
			for _, words := range c.nbWords {
				if words[wi]&bit != 0 {
					count++
				}
			}
		}
		return protocol.SupplierRarityUniform(size, size-i, count)
	}
}

// maintenanceProvider implements protocol.ViewProvider over shard-owned
// world state: one long-lived value per shard, re-pointed at each node.
type maintenanceProvider struct {
	w *World
	n *Node
	// peerBuf and heardBuf are the reusable staging buffers for the DHT
	// peer levels and the overheard rows.
	peerBuf  []dht.ID
	heardBuf []overlay.Overheard
}

func (p *maintenanceProvider) AppendNeighbors(dst []protocol.NeighborSupply) []protocol.NeighborSupply {
	for _, nb := range p.n.Table.Neighbors() {
		s := protocol.NeighborSupply{ID: nb, Known: p.n.Ctrl.Known(int(nb))}
		if s.Known {
			s.Supply = p.n.Ctrl.Supply(int(nb))
		}
		dst = append(dst, s)
	}
	return dst
}

func (p *maintenanceProvider) AppendOverheard(dst []protocol.CandidateSource) []protocol.CandidateSource {
	p.heardBuf = p.n.Table.OverheardRaw(p.heardBuf[:0])
	for _, o := range p.heardBuf {
		dst = append(dst, protocol.CandidateSource{ID: o.ID, Latency: o.Latency})
	}
	return dst
}

func (p *maintenanceProvider) AppendDHTPeers(dst []protocol.CandidateSource) []protocol.CandidateSource {
	p.peerBuf = p.n.Table.DHT().AppendPeers(p.peerBuf[:0])
	for _, pr := range p.peerBuf {
		c := overlay.NodeID(pr)
		dst = append(dst, protocol.CandidateSource{ID: c, Latency: p.w.Latency(p.n.ID, c)})
	}
	return dst
}

func (p *maintenanceProvider) AppendRPCandidates(dst []overlay.NodeID, max int) []overlay.NodeID {
	// Only the source consults the RP list — once per round — so the
	// membership snapshot's allocation is not a steady-state cost.
	return p.w.rp.AppendCandidates(dst, p.n.ID, max)
}

func (p *maintenanceProvider) Alive(id overlay.NodeID) bool { return p.w.nodes[id] != nil }

func (p *maintenanceProvider) Connected(id overlay.NodeID) bool {
	return p.n.Table.IsNeighbor(id)
}
