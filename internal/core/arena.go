package core

import (
	"cmp"
	"slices"

	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/prefetch"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// roundArena is one ownership shard's reusable round-lived scratch. Every
// buffer in it is grow-only: phases reset slices to [:0] (or re-point
// per-bucket heads) instead of reallocating, so after warm-up the round
// pipeline's recurring transients cost no allocation at all.
//
// Ownership follows the shard rule everywhere else in the pipeline: only
// the shard that owns arena index s (or sequential phase code between
// parallel sections) may touch w.arenas[s]. Results carved from an arena
// (rewire intents, serve asks) stay valid until the owning phase runs
// again in the next round, which is exactly as long as their consumers
// need them.
type roundArena struct {
	// gossip holds the maintenance scatter buckets: gossip[s] collects
	// the hear events this scatter shard emits toward ownership shard s.
	// The outer slice is sized to phaseShards once; stage 1 resets each
	// bucket per round.
	gossip [][]hearEvent

	// nodes is this shard's work list: the alive IDs it owns, ascending.
	// Rebuilt sequentially each maintenance round.
	nodes []overlay.NodeID

	// deadScan snapshots one node's neighbour IDs ahead of dead-edge
	// removal (removeEdge mutates the live cache mid-iteration).
	deadScan []overlay.NodeID

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

	// serveScatter holds the transfer-resolution scatter buckets:
	// serveScatter[s] collects the asks this requester-range shard emits
	// toward supplier-ownership shard s. Sized to phaseShards once; the
	// scatter stage resets each bucket per round.
	serveScatter [][]transferReq

	// asks is the serve stage's merged fresh-ask list for this supplier
	// shard, grouped by supplier ascending (arrival order preserved within
	// each supplier); suppliers the distinct supplier worklist; deliveries
	// the shard's granted transfers, alive until the round's apply phase.
	asks       []transferReq
	suppliers  []overlay.NodeID
	deliveries []delivery

	// planAsks and rrReqs stage one supplier's fresh asks for PlanServe /
	// ServeRoundRobin; serve is the PlanServe request scratch; sctx backs
	// the hoisted ServeInput callbacks (one closure set per shard, fields
	// re-pointed per supplier).
	planAsks []protocol.Ask
	rrReqs   []protocol.Request
	serve    protocol.ServeScratch
	sctx     serveCtx

	// applyBucket holds the deliveries addressed to this ownership
	// shard's receivers, scattered sequentially then grouped by receiver
	// and applied shard-locally: applyPerm is the grouped order as indices
	// into the bucket, applyRun the staging buffer one receiver's
	// deliveries are gathered into and sorted in.
	applyBucket []delivery
	applyPerm   []int32
	applyRun    []delivery

	// groupCnt is the counting-sort table of the two group-by-owner
	// passes (serve by supplier, apply by receiver), one slot per ring ID
	// this shard owns, indexed by World.shardRank. All zero between uses.
	groupCnt []int32

	// sched is the schedule phase's scratch (this index read as a
	// contiguous range shard): the policy scratch whose request arena
	// backs the round's scheduler output, plus the candidate-enumeration
	// buffers reset per node.
	sched     scheduler.Scratch
	candLive  []scheduler.NeighborWords
	candUnion []uint64
	candSup   []scheduler.Supplier
	cands     []scheduler.Candidate

	// predictIDs is the predict phase's missed-ID arena (per-node lists are
	// capacity-capped carvings, alive until resolvePrefetch consumes them);
	// predict backs its hoisted exclusion callback.
	predictIDs []segment.ID
	predict    predictCtx

	// walks holds the pre-fetch route stage's outcomes for this index
	// range — node × segment × replica order, consumed by the claim stage
	// in the same round — and route is the stage's walk scratch, whose
	// Stale list the stage's reduce evicts.
	walks []prefetch.Walk
	route dht.RouteScratch
}

// predictCtx carries the per-node state the hoisted Urgent Line exclusion
// callback reads. The closure is built once per shard (ensure) and
// captures only the ctx pointer; predictPhase re-points the fields for
// each node in turn, so the per-node closure allocation of the retired
// sequential loop is gone.
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

// ensureArenas sizes the per-shard arena table on first use (sequential
// code only) and wires each shard's provider to the world.
func (w *World) ensureArenas() {
	if w.arenas == nil {
		w.arenas = make([]roundArena, phaseShards)
		for s := range w.arenas {
			w.arenas[s].provider.w = w
			w.arenas[s].groupCnt = make([]int32, w.shardSize[s])
		}
	}
}

// shardRanks numbers the ring IDs of each ownership shard 0, 1, 2, … in
// ascending ID order: rank[id] is id's number within shard shardOf(id),
// size[s] how many IDs shard s owns. The assignment depends only on the
// identifier space, so it is computed once per world. It is what lets a
// shard group its asks or deliveries by owner with a counting sort over
// a table as small as the shard (and private to it) rather than one
// slot per ring ID: within a shard, ascending rank is ascending ID.
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

// groupAsks builds supplier shard s's fresh-ask list for the round in
// arenas[s].asks: every ask the scatter stage bucketed for s, grouped by
// supplier ascending, each supplier's asks in arrival order. Reading the
// scatter buckets in scatter-shard order reproduces the
// requester-ascending arrival order a sequential scan would produce, and
// the counting sort is stable, so the result is the one a stable sort of
// the concatenated buckets by supplier gives — without the concatenated
// copy or the log factor. Only shard s's serve stage calls it, after the
// scatter barrier.
func groupAsks(arenas []roundArena, s int, rank []int32) {
	ar := &arenas[s]
	cnt := ar.groupCnt
	for r := range arenas {
		for _, tr := range arenas[r].serveScatter[s] {
			cnt[rank[tr.supplier]]++
		}
	}
	total := startOffsets(cnt)
	ar.asks = slices.Grow(ar.asks[:0], total)[:total]
	for r := range arenas {
		for _, tr := range arenas[r].serveScatter[s] {
			k := rank[tr.supplier]
			ar.asks[cnt[k]] = tr
			cnt[k]++
		}
	}
	clear(cnt)
}

// eachReceiverRun calls fn once per receiver with deliveries in the
// shard's applyBucket, receivers ascending, handing it that receiver's
// deliveries in canonical arrival order (timestamp, segment, sender,
// prefetch first): the runs a sort of the whole bucket by (receiver,
// timestamp, segment, sender, prefetch) would contain. A counting sort
// groups bucket indices by receiver; each run (about ten entries) is
// then gathered into the staging buffer and sorted there, so the bucket
// is never copied whole. The (sender, prefetch) tie-breaks make the
// outcome independent of how the delivery slice was assembled upstream.
// run is valid only during the call.
func (ar *roundArena) eachReceiverRun(rank []int32, fn func(run []delivery)) {
	bucket := ar.applyBucket
	if len(bucket) == 0 {
		return
	}
	cnt := ar.groupCnt
	for i := range bucket {
		cnt[rank[bucket[i].to]]++
	}
	startOffsets(cnt)
	perm := slices.Grow(ar.applyPerm[:0], len(bucket))[:len(bucket)]
	ar.applyPerm = perm
	for i := range bucket {
		k := rank[bucket[i].to]
		perm[cnt[k]] = int32(i)
		cnt[k]++
	}
	// cnt[k] is now the end of rank k's run, the previous rank's end its
	// start.
	lo := int32(0)
	for k, hi := range cnt {
		cnt[k] = 0
		if hi == lo {
			continue
		}
		run := ar.applyRun[:0]
		for _, i := range perm[lo:hi] {
			run = append(run, bucket[i])
		}
		ar.applyRun = run
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

// resetGossip readies the scatter buckets for a new round, keeping every
// bucket's capacity.
func (ar *roundArena) resetGossip() {
	if ar.gossip == nil {
		ar.gossip = make([][]hearEvent, phaseShards)
	}
	for i := range ar.gossip {
		ar.gossip[i] = ar.gossip[i][:0]
	}
}

// resetServeScatter readies the transfer scatter buckets likewise.
func (ar *roundArena) resetServeScatter() {
	if ar.serveScatter == nil {
		ar.serveScatter = make([][]transferReq, phaseShards)
	}
	for i := range ar.serveScatter {
		ar.serveScatter[i] = ar.serveScatter[i][:0]
	}
}

// serveCtx carries the per-supplier state the hoisted ServeInput
// callbacks read. The closures are built once per shard (ensure) and
// capture only the ctx pointer; serveSupplier re-points the fields for
// each supplier in turn, so the per-supplier closure allocations the old
// inline literals paid are gone.
type serveCtx struct {
	w          *World
	snaps      []buffer.Map
	index      []int32
	sn         *Node
	neighbours []overlay.NodeID
	cache      *rarityCache
	pos        segment.ID

	// nbWords holds the live neighbours' advertised availability words; the
	// rarity closure counts holders with one bit probe per neighbour word.
	nbWords [][]uint64

	supplierHas    func(segment.ID) bool
	requesterAlive func(overlay.NodeID) bool
	requesterHas   func(overlay.NodeID, segment.ID) bool
	rarity         func(segment.ID) float64
}

// prepRarity gathers the current supplier's live neighbours' words. Every
// snapshot shares the playback origin and window size (alignedWords), so a
// segment's position-from-tail is identical in each holder and rarity
// needs only a holder count.
func (c *serveCtx) prepRarity() {
	c.nbWords = c.nbWords[:0]
	for _, nb := range c.neighbours {
		if j := c.index[nb]; j >= 0 {
			c.nbWords = append(c.nbWords, c.w.alignedWords(c.snaps[j], c.pos, c.sn.ID, nb))
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
		j := c.index[id]
		return j >= 0 && c.snaps[j].Has(seg)
	}
	c.rarity = func(id segment.ID) float64 {
		if r, ok := c.cache.get(id); ok {
			return r
		}
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
		r := protocol.SupplierRarityUniform(size, size-i, count)
		c.cache.put(id, r)
		return r
	}
}

// maintenanceProvider implements protocol.ViewProvider over shard-owned
// world state: one long-lived value per shard, re-pointed at each node.
// The append methods materialise exactly what the retired per-node
// closures did, minus the per-call slice and closure allocations.
type maintenanceProvider struct {
	w *World
	n *Node
	// peerBuf is the reusable staging buffer for the two DHT peer tables.
	peerBuf []dht.ID
}

func (p *maintenanceProvider) AppendNeighbors(dst []protocol.NeighborSupply) []protocol.NeighborSupply {
	for _, nb := range p.n.Table.Neighbors() {
		s := protocol.NeighborSupply{ID: nb.ID, Known: p.n.Ctrl.Known(int(nb.ID))}
		if s.Known {
			s.Supply = p.n.Ctrl.Supply(int(nb.ID))
		}
		dst = append(dst, s)
	}
	return dst
}

func (p *maintenanceProvider) AppendOverheard(dst []protocol.CandidateSource) []protocol.CandidateSource {
	for _, o := range p.n.Table.OverheardRaw() {
		dst = append(dst, protocol.CandidateSource{ID: o.ID, Latency: o.Latency})
	}
	return dst
}

func (p *maintenanceProvider) AppendDHTPeers(dst []protocol.CandidateSource) []protocol.CandidateSource {
	p.peerBuf = p.peerBuf[:0]
	if t := p.n.Table.DHT(); t != nil {
		p.peerBuf = t.AppendPeers(p.peerBuf)
	}
	if t := p.w.dhtNet.Table(dht.ID(p.n.ID)); t != nil {
		p.peerBuf = t.AppendPeers(p.peerBuf)
	}
	for _, pr := range p.peerBuf {
		c := overlay.NodeID(pr)
		dst = append(dst, protocol.CandidateSource{ID: c, Latency: p.w.Latency(p.n.ID, c)})
	}
	return dst
}

func (p *maintenanceProvider) AppendRPCandidates(dst []overlay.NodeID, max int) []overlay.NodeID {
	// Only the source consults the RP list — once per round — so the
	// membership snapshot's allocation is not a steady-state cost.
	return append(dst, p.w.rp.Candidates(p.n.ID, max)...)
}

func (p *maintenanceProvider) Alive(id overlay.NodeID) bool { return p.w.nodes[id] != nil }

func (p *maintenanceProvider) Connected(id overlay.NodeID) bool {
	return containsSortedID(p.n.nbrs, id)
}
