package core

import (
	"slices"

	"continustreaming/internal/metrics"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// transferReq is one requester->supplier ask: 16 bytes of int32 fields
// (see newAsk).
type transferReq struct {
	supplier, requester int32
	id                  int32
	expected            int32
}

// newAsk builds an ask record. Ring IDs fit int32 because dht.NewSpace caps
// the ring at 2^31 slots; the segment ID and the expected-arrival stamp
// are checked (seg32, ms32).
func newAsk(supplier, requester overlay.NodeID, id segment.ID, expected sim.Time) transferReq {
	return transferReq{supplier: int32(supplier), requester: int32(requester), id: seg32(id), expected: ms32(expected)}
}

// resolveTransfers enforces supplier outbound budgets with the
// dissemination engine's supplier-side service discipline. Each supplier
// merges its round's fresh asks with the carry queue it kept from the
// previous round and serves them earliest-deadline-first (rarest-first on
// ties, computed from its own neighbours' buffer maps) at its real
// service rate; like a pipelined TCP supplier it keeps transmitting into
// the next period (slots past τ arrive next round via the receiver
// shard's in-flight list) up to what its uplink's 2·O horizon has left
// after the round's pushes and rescue replies. Requests beyond the
// horizon are carried in a bounded per-supplier queue to the next round —
// deadline-hopeless and overflow entries are evicted and the requester
// times out and retries.
//
// The phase runs as a sharded pipeline whose shard-to-shard hand-offs
// are laid out before they are filled (see handoff). Stage 1 (scatter)
// partitions requesters into contiguous index ranges: a first pass counts
// each range's asks per owning supplier shard, sequential code carves the
// ranges' hand-off lists at those sizes, and a second pass fills them;
// because ranges ascend with the shard index and w.order is sorted,
// reading a supplier shard's segments in scatter-shard order reproduces
// the requester-ascending arrival order a sequential scan would produce.
// Stage 2 (serve) gives each supplier shard exclusive ownership of its
// suppliers — their nodes' carry queues and uplinks included. Its first
// pass groups the shard's asks by supplier into a copy carved at their
// count (groupAsks), lists the worklist and reserves, per receiver shard,
// one grant slot for every fresh ask and carried request it could grant —
// PlanServe and ServeRoundRobin grant from nothing else; after the grant
// lists are carved, the second pass runs the service discipline, charges
// its own suppliers' uplinks and hands each grant to the segment of the
// shard that owns its receiver (roundArena.deliverScatter), where the
// apply stage picks it up. Each shard counts into its arena, and
// foldCounts adds the shards' counts in shard order.
func (w *World) resolveTransfers(clock *sim.Clock, requests [][]scheduler.Request, sample *metrics.RoundSample) {
	n := len(requests)
	w.ensureArenas()
	sim.ForShards(w.pool, phaseShards, func(r int) {
		ar := &w.arenas[r]
		ar.serveScatter.clearBounds()
		lo, hi := sim.ShardRange(n, phaseShards, r)
		for _, reqs := range requests[lo:hi] {
			for _, req := range reqs {
				ar.serveScatter.reserve(w.shardOf(overlay.NodeID(req.Supplier)), 1)
			}
		}
	})
	layout(&w.lists.asks, w.arenas, func(ar *roundArena) *handoff[transferReq] { return &ar.serveScatter })
	sim.ForShards(w.pool, phaseShards, func(r int) {
		ar := &w.arenas[r]
		lo, hi := sim.ShardRange(n, phaseShards, r)
		for i := lo; i < hi; i++ {
			requester := w.order[i]
			for _, req := range requests[i] {
				s := overlay.NodeID(req.Supplier)
				ar.serveScatter.put(w.shardOf(s), newAsk(s, requester, req.ID, req.ExpectedAt))
			}
		}
	})

	// Each supplier shard's grouped copy holds exactly what the scatter
	// handed it.
	var asks [phaseShards]int
	for r := range w.arenas {
		for s := range asks {
			asks[s] += len(w.arenas[r].serveScatter.to(s))
		}
	}
	carveGroups(&w.lists.grouped, w.arenas, &asks, func(ar *roundArena) *[]transferReq { return &ar.asks })
	sim.ForShards(w.pool, phaseShards, func(s int) {
		ar := &w.arenas[s]
		// Cross-shard read of scatter output, sequenced by the barrier
		// between the ForShards calls.
		groupAsks(w.arenas, s, w.shardRank)
		// The worklist is the union of carry-queue holders and fresh-ask
		// targets, ascending and deduplicated. Last round's walk listed
		// the holders; churn since may have removed one, handed its slot
		// to a joiner or emptied its queue of departed requesters.
		ar.suppliers = ar.suppliers[:0]
		for _, id := range ar.carriers {
			if n := w.nodes[id]; n != nil && len(n.carry) > 0 {
				ar.suppliers = append(ar.suppliers, id)
			}
		}
		ar.carriers = ar.carriers[:0]
		for i, tr := range ar.asks {
			if i == 0 || tr.supplier != ar.asks[i-1].supplier {
				ar.suppliers = append(ar.suppliers, overlay.NodeID(tr.supplier))
			}
		}
		slices.Sort(ar.suppliers)
		ar.suppliers = slices.Compact(ar.suppliers)
		// A shard with nothing to serve reserves nothing, so it hands
		// apply nothing, not last round's grants.
		ar.deliverScatter.clearBounds()
		for _, tr := range ar.asks {
			ar.deliverScatter.reserve(w.shardOf(overlay.NodeID(tr.requester)), 1)
		}
		for _, sup := range ar.suppliers {
			if sn := w.nodes[sup]; sn != nil {
				for _, req := range sn.carry {
					ar.deliverScatter.reserve(w.shardOf(req.Requester), 1)
				}
			}
		}
	})
	layout(&w.lists.grants, w.arenas, func(ar *roundArena) *handoff[delivery] { return &ar.deliverScatter })

	start := clock.Now()
	horizon := clock.RoundEnd()
	pos := w.playbackPos(w.round)
	p := w.cfg.Stream.Rate
	sim.ForShards(w.pool, phaseShards, func(s int) {
		ar := &w.arenas[s]
		c := &ar.counts
		*c = metrics.RoundSample{}
		askLo := 0
		for _, sup := range ar.suppliers {
			// Two-pointer walk: suppliers and asks ascend together.
			for askLo < len(ar.asks) && overlay.NodeID(ar.asks[askLo].supplier) < sup {
				askLo++
			}
			askHi := askLo
			for askHi < len(ar.asks) && overlay.NodeID(ar.asks[askHi].supplier) == sup {
				askHi++
			}
			sr := w.serveSupplier(ar, sup, ar.asks[askLo:askHi], start, horizon, pos, p)
			askLo = askHi
			if len(sr.Queued) > 0 {
				// Suppliers ascend, so the list is next round's sorted
				// worklist of queue holders as it stands.
				ar.carriers = append(ar.carriers, sup)
			}
			c.QueueCarried += int64(len(sr.Queued))
			c.QueueEvictedDeadline += sr.Evicted.Deadline
			c.QueueEvictedOverflow += sr.Evicted.Overflow
			c.QueueEvictedStale += sr.Evicted.Stale
			c.Dropped += sr.Evicted.Total()
			sn := w.nodes[sup]
			if sn == nil {
				continue
			}
			// The serving shard owns sup (shardOf(sup) == s), so this
			// write races with nothing. Grants queue behind everything
			// the uplink has already charged this round.
			slot := sn.up.ChargeGrants(len(sr.Granted))
			for k, g := range sr.Granted {
				if g.Carried {
					c.QueueServed++
				}
				at := start + sn.up.WireAt(slot+k) + w.Latency(sup, g.Requester)
				ar.deliverScatter.put(w.shardOf(g.Requester), newDelivery(g.Requester, sup, g.ID, at, false))
			}
		}
	})
	w.foldCounts(sample)
}

// serveSupplier runs one supplier's scheduling period: it assembles the
// protocol.ServeInput from shard-owned world state (carry queue, buffer
// predicates) and the requesters' and the supplier's neighbours' buffers,
// read in place (the advertised maps; see exchangePhase), and delegates
// the decision to protocol.PlanServe — the same code path the livenet
// runtime serves from — then leaves the requests carried forward on the
// supplier's node. It writes only the supplier's node and ar, the arena of
// the shard that owns it, so supplier shards invoke it concurrently.
func (w *World) serveSupplier(ar *roundArena, sup overlay.NodeID, fresh []transferReq, start, horizon sim.Time, pos segment.ID, p int) protocol.ServeResult {
	sn := w.nodes[sup]
	if sn == nil || sn.Rates.Out <= 0 {
		// A dead or mute supplier abandons everything addressed to it. It
		// carries nothing: a queue dies with its node, and the bound on a
		// live one is a multiple of its outbound rate.
		return protocol.ServeResult{Evicted: protocol.Evictions{Stale: int64(len(fresh))}}
	}
	if !w.cfg.Profile.Engine {
		// Baseline profiles keep the published pull-only discipline:
		// fair-queued round-robin across requesters within the backlog
		// horizon, drop-and-retry beyond it, no carry queue. Granted
		// aliases the shard's grant buffer, consumed before the next
		// supplier.
		ar.rrReqs = ar.rrReqs[:0]
		for _, tr := range fresh {
			ar.rrReqs = append(ar.rrReqs, protocol.Request{
				Requester: overlay.NodeID(tr.requester), ID: segment.ID(tr.id), Expected: sim.Time(tr.expected),
			})
		}
		res := protocol.ServeRoundRobin(ar.rrReqs, sn.up.Spare(), ar.rrGranted)
		ar.rrGranted = res.Granted
		return res
	}
	ar.planAsks = ar.planAsks[:0]
	for _, tr := range fresh {
		id := segment.ID(tr.id)
		ar.planAsks = append(ar.planAsks, protocol.Ask{
			Requester: overlay.NodeID(tr.requester),
			ID:        id,
			Deadline:  w.deadlineOf(id, pos, p, start),
		})
	}
	// Supplier-side rarity: equation (2) over the advertised buffers of
	// the supplier's own neighbours, which PlanServe evaluates once per
	// distinct segment. The input callbacks are the shard's hoisted closure
	// set, re-pointed at this supplier.
	ctx := &ar.sctx
	ctx.ensure(w)
	ctx.pos = pos
	ctx.sn = sn
	ctx.neighbours = w.neighborsOf(sup)
	ctx.prepRarity()
	res := protocol.PlanServe(protocol.ServeInput{
		Carried:        sn.carry,
		Fresh:          ar.planAsks,
		Capacity:       sn.up.Spare(),
		QueueCap:       w.cfg.QueueFactor * sn.Rates.Out,
		Horizon:        horizon,
		SupplierHas:    ctx.supplierHas,
		RequesterAlive: ctx.requesterAlive,
		RequesterHas:   ctx.requesterHas,
		Rarity:         ctx.rarity,
		QueueInto:      sn.carry[:0],
	}, &ar.serve)
	sn.carry = res.Queued
	return res
}
