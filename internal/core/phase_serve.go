package core

import (
	"continustreaming/internal/metrics"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

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
// Each ownership shard serves its own suppliers — their nodes' carry
// queues and uplinks included — walking its work list. A supplier reads
// the asks addressed to it in place, from its neighbours' scheduled
// requests (pullAsks): Algorithm 1 asks only connected neighbours, and
// neighbour lists are symmetric. The grants go back to their receivers
// through the one hand-off list laid out before it is filled (see
// handoff), with one grant slot per receiver shard for every fresh ask
// and carried request a supplier could grant — PlanServe and
// ServeRoundRobin grant from nothing else — from the tallies the
// schedule phase took (roundArena.asksTo, carryTo). After the grant lists
// are carved, each shard pulls each supplier's asks, runs the service
// discipline for every supplier that has fresh asks or a carry queue,
// charges its uplink and hands each grant to the segment of the shard
// that owns its receiver (roundArena.deliverScatter), where the apply
// stage picks it up. Each shard adds to the counts its schedule shard
// opened, and foldCounts adds the shards' counts in shard order.
func (w *World) resolveTransfers(clock *sim.Clock, sample *metrics.RoundSample) {
	// Supplier shard s may grant each fresh ask the nodes of shard d sent
	// it and each request it carries for them. A shard with nothing to
	// serve reserves nothing, so it hands apply nothing, not last round's
	// grants.
	for s := range w.arenas {
		h := &w.arenas[s].deliverScatter
		h.clearBounds()
		for d := range w.arenas {
			h.reserve(d, w.arenas[d].asksTo[s]+w.arenas[s].carryTo[d])
		}
	}
	layout(&w.lists.grants, w.arenas)

	start := clock.Now()
	horizon := clock.RoundEnd()
	pos := w.playbackPos(w.round)
	p := w.cfg.Stream.Rate
	sim.ForShards(w.pool, phaseShards, func(s int) {
		ar := &w.arenas[s]
		c := &ar.counts
		for _, sup := range ar.nodes {
			sn := w.nodes[sup]
			if w.pullAsks(ar, sn, start, pos, p) == 0 && len(sn.carry) == 0 {
				continue
			}
			sr := w.serveSupplier(ar, sn, horizon, pos)
			c.QueueCarried += int64(len(sr.Queued))
			c.QueueEvictedDeadline += sr.Evicted.Deadline
			c.QueueEvictedOverflow += sr.Evicted.Overflow
			c.QueueEvictedStale += sr.Evicted.Stale
			c.Dropped += sr.Evicted.Total()
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

// pullAsks stages the round's fresh asks addressed to supplier sn in ar —
// as PlanServe asks (planAsks) under the engine profile, as
// ServeRoundRobin requests (rrReqs) under a baseline one, the other list
// left empty — and returns how many there are. It reads them in place
// from sn's neighbours' scheduled requests: neighbours ascending, each
// neighbour's asks to sn in its scheduled order.
func (w *World) pullAsks(ar *roundArena, sn *Node, start sim.Time, pos segment.ID, p int) int {
	ar.planAsks, ar.rrReqs = ar.planAsks[:0], ar.rrReqs[:0]
	engine := w.cfg.Profile.Engine
	for _, nb := range sn.Table.Neighbors() {
		for _, req := range w.nodes[nb].asks {
			if overlay.NodeID(req.Supplier) != sn.ID {
				continue
			}
			if engine {
				ar.planAsks = append(ar.planAsks, protocol.Ask{Requester: nb, ID: req.ID, Deadline: w.deadlineOf(req.ID, pos, p, start)})
			} else {
				ar.rrReqs = append(ar.rrReqs, protocol.Request{Requester: nb, ID: req.ID, Expected: req.ExpectedAt})
			}
		}
	}
	return len(ar.planAsks) + len(ar.rrReqs)
}

// serveSupplier runs one supplier's scheduling period on the fresh asks
// pullAsks staged in ar: it assembles the protocol.ServeInput from
// shard-owned world state (carry queue, buffer predicates) and the
// requesters' and the supplier's neighbours' buffers, read in place (the
// advertised maps; see exchangePhase), and delegates the decision to
// protocol.PlanServe — the same code path the livenet runtime serves from
// — then leaves the requests carried forward on the supplier's node. It
// writes only the supplier's node and ar, the arena of the shard that
// owns it, so supplier shards invoke it concurrently.
func (w *World) serveSupplier(ar *roundArena, sn *Node, horizon sim.Time, pos segment.ID) protocol.ServeResult {
	if sn.Rates.Out <= 0 {
		// A mute supplier abandons everything addressed to it. It carries
		// nothing: the bound on a queue is a multiple of its outbound
		// rate.
		return protocol.ServeResult{Evicted: protocol.Evictions{Stale: int64(len(ar.planAsks) + len(ar.rrReqs))}}
	}
	if !w.cfg.Profile.Engine {
		// Baseline profiles keep the published pull-only discipline:
		// fair-queued round-robin across requesters within the backlog
		// horizon, drop-and-retry beyond it, no carry queue. Granted
		// aliases the shard's grant buffer, consumed before the next
		// supplier.
		res := protocol.ServeRoundRobin(ar.rrReqs, sn.up.Spare(), ar.rrGranted)
		ar.rrGranted = res.Granted
		return res
	}
	// Supplier-side rarity: equation (2) over the advertised buffers of
	// the supplier's own neighbours, which PlanServe evaluates once per
	// distinct segment. The input callbacks are the shard's hoisted closure
	// set, re-pointed at this supplier.
	ctx := &ar.sctx
	ctx.ensure(w)
	ctx.pos = pos
	ctx.sn = sn
	ctx.neighbours = sn.Table.Neighbors()
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
