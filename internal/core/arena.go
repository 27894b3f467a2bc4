package core

import (
	"cmp"
	"slices"

	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/prefetch"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// roundArena is one ownership shard's reusable round-lived scratch, plus
// the one list that outlives a round: the shard's in-flight deliveries
// (later). Every buffer in it is grow-only: phases reset slices to [:0]
// (or re-point per-bucket heads, or compact in place) instead of
// reallocating, so after warm-up the round pipeline's recurring
// transients cost no allocation at all.
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
	// removal (removeEdge mutates the live list mid-iteration).
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
	// each supplier); suppliers the distinct supplier worklist.
	asks      []transferReq
	suppliers []overlay.NodeID

	// carriers lists, ascending, this shard's suppliers whose serve left
	// a non-empty carry queue on their node: with the next round's ask
	// targets, the next round's worklist. Unlike its neighbours here it
	// has to last from one serve stage to the next.
	carriers []overlay.NodeID

	// deliverScatter holds the serve stage's grants: deliverScatter[s]
	// collects the transfers this supplier shard granted to receivers
	// owned by shard s, alive until the round's apply phase reads them.
	// Sized to phaseShards once; the serve stage resets each bucket at the
	// top of its map func, ahead of every return.
	deliverScatter [][]delivery

	// later holds the deliveries in flight to this ownership shard's
	// receivers that no serve shard hands over this round: transfers that
	// spilled past an earlier round's boundary, the push phase's late
	// copies and the pre-fetch claim stage's transfers (the latter two
	// appended from sequential code). The apply stage moves the due ones
	// into applyBucket and compacts the rest in place; churn drops those
	// addressed to departed nodes.
	later []delivery

	// planAsks and rrReqs stage one supplier's fresh asks for PlanServe /
	// ServeRoundRobin, and rrGranted backs the latter's grants; serve is
	// the PlanServe request scratch; sctx backs the hoisted ServeInput
	// callbacks (one closure set per shard, fields re-pointed per
	// supplier).
	planAsks  []protocol.Ask
	rrReqs    []protocol.Request
	rrGranted []protocol.Request
	serve     protocol.ServeScratch
	sctx      serveCtx

	// applyBucket holds the deliveries this ownership shard's receivers
	// take in this round, collected by the shard itself, grouped by
	// receiver and applied shard-locally (eachReceiverRun).
	applyBucket []delivery

	// groupCnt is the counting-sort table of the two group-by-owner
	// passes (serve by supplier, apply by receiver), one slot per ring ID
	// this shard owns, indexed by World.shardRank. All zero between uses.
	groupCnt []int32

	// sched is the schedule phase's scratch (this index read as a
	// contiguous range shard): the policy scratch whose request arena
	// backs the round's scheduler output, plus the candidate enumeration
	// and its neighbour-word list, reset per node.
	sched    scheduler.Scratch
	candLive []scheduler.NeighborWords
	enum     scheduler.Enumeration

	// predictIDs is the predict phase's missed-ID arena (per-node lists are
	// capacity-capped carvings, alive until resolvePrefetch consumes them);
	// predict backs its hoisted exclusion callback.
	predictIDs []segment.ID
	predict    predictCtx

	// walks holds the pre-fetch route stage's outcomes for this index
	// range — node × segment × replica order, consumed by the claim stage
	// in the same round.
	walks []prefetch.Walk
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

// eachReceiverRun hands receiver shard s its arrivals of the round ending
// at end: it calls fn once per receiver, receivers ascending, with that
// receiver's deliveries in canonical arrival order (timestamp, segment,
// sender, prefetch first) — the runs a sort of everything due by
// (receiver, timestamp, segment, sender, prefetch) would contain. The
// sources are the shard's own in-flight list and what each serve shard
// granted its receivers (a cross-shard read of serve output, sequenced
// by the barrier between the serve and apply MapReduce calls); whatever
// lands after end stays in — or joins — the in-flight list, compacted in
// place. Like groupAsks it is a counting sort straight from the sources
// into owner order: one pass counts the due deliveries per receiver, a
// second places them in applyBucket, and each run (about ten entries) is
// sorted where it lies. The order the sources are read in is free:
// compareArrival is a total order, so a receiver's sorted run is the
// same however its deliveries were assembled — which is what lets every
// shard collect its own without a sequential merge. Only shard s's apply
// stage calls it; run is valid only during the call.
func eachReceiverRun(arenas []roundArena, s int, rank []int32, end sim.Time, fn func(run []delivery)) {
	ar := &arenas[s]
	cnt := ar.groupCnt
	for _, d := range ar.later {
		if d.at <= end {
			cnt[rank[d.to]]++
		}
	}
	for r := range arenas {
		for _, d := range arenas[r].deliverScatter[s] {
			if d.at <= end {
				cnt[rank[d.to]]++
			}
		}
	}
	total := startOffsets(cnt)
	due := slices.Grow(ar.applyBucket[:0], total)[:total]
	kept := ar.later[:0]
	for _, d := range ar.later {
		if d.at > end {
			kept = append(kept, d)
			continue
		}
		k := rank[d.to]
		due[cnt[k]] = d
		cnt[k]++
	}
	for r := range arenas {
		for _, d := range arenas[r].deliverScatter[s] {
			if d.at > end {
				kept = append(kept, d)
				continue
			}
			k := rank[d.to]
			due[cnt[k]] = d
			cnt[k]++
		}
	}
	ar.applyBucket, ar.later = due, kept
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

// resetBuckets readies one shard's per-destination-shard buckets for a
// new round: sized to phaseShards on first use, every bucket emptied with
// its capacity kept.
func resetBuckets[T any](buckets [][]T) [][]T {
	if buckets == nil {
		buckets = make([][]T, phaseShards)
	}
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	return buckets
}

func (ar *roundArena) resetGossip()         { ar.gossip = resetBuckets(ar.gossip) }
func (ar *roundArena) resetServeScatter()   { ar.serveScatter = resetBuckets(ar.serveScatter) }
func (ar *roundArena) resetDeliverScatter() { ar.deliverScatter = resetBuckets(ar.deliverScatter) }

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
type maintenanceProvider struct {
	w *World
	n *Node
	// peerBuf is the reusable staging buffer for the DHT peer levels.
	peerBuf []dht.ID
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
	for _, o := range p.n.Table.OverheardRaw() {
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
