package core

import (
	"continustreaming/internal/bandwidth"
	"continustreaming/internal/dht"
	"continustreaming/internal/metrics"
	"continustreaming/internal/overlay"
	"continustreaming/internal/prefetch"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// routingMessageBits is the wire size of one DHT routing message (paper:
// 10 bytes).
const routingMessageBits = 80

// worldDirectory adapts the world to the prefetch.Directory interface:
// whether a ring node holds a backup and how much outbound it can still
// spare this round.
type worldDirectory struct{ w *World }

func (d worldDirectory) HasBackup(node dht.ID, id segment.ID) bool {
	n := d.w.nodes[overlay.NodeID(node)]
	if n == nil {
		return false
	}
	// The source trivially holds every segment it has generated — it is
	// the retrieval path of last resort exactly as in a real deployment.
	if n.IsSource {
		return n.Buf.Has(id)
	}
	return n.seg.BackedUp(id)
}

func (d worldDirectory) AvailableRate(node dht.ID) float64 {
	n := d.w.nodes[overlay.NodeID(node)]
	if n == nil {
		return 0
	}
	// Whatever is left of the uplink's 2·O horizon is spare capacity a
	// pre-fetch may claim, reported as a sending rate capped at line rate.
	return float64(max(0, min(n.up.Spare(), n.Rates.Out)))
}

// resolvePrefetch executes Algorithm 2 for every triggered node as a
// two-stage pipeline over the plans predictPhase left in the shards'
// arenas. The route stage (routePrefetch) walks the DHT for all of them
// in parallel; the claim stage below then visits the nodes in w.order,
// asks the located owners, and commits — supplier choice reads the
// outbound ledger earlier claims have already charged, so it is the half
// that needs an order. A shard's work list is the ascending run of
// w.order it owns, so one cursor per shard finds each node's plan and
// walks where its shard left them. Each committed transfer joins the
// in-flight list of the shard that owns its receiver, where the round's
// apply stage finds it.
func (w *World) resolvePrefetch(clock *sim.Clock, sample *metrics.RoundSample) {
	if !w.cfg.Profile.Prefetch {
		return
	}
	if w.retr == nil {
		w.retr = &prefetch.Retriever{
			Net:      w.dhtNet,
			Replicas: w.cfg.Replicas,
			Dir:      worldDirectory{w},
			Scratch:  &w.retrScratch,
		}
	}
	retr := w.retr
	w.routePrefetch()
	start := clock.Now()
	var planned, walked [phaseShards]int
	for _, id := range w.order {
		s := w.shardOf(id)
		ar := &w.arenas[s]
		plan := ar.plans[planned[s]]
		planned[s]++
		if !plan.Triggered {
			continue
		}
		// All of a node's segments are resolved against the ledger as it
		// stands before the node's first claim.
		k := len(plan.Missed) * retr.Replicas
		results := retr.Choose(plan.Missed, ar.walks[walked[s]:walked[s]+k])
		walked[s] += k
		w.claimPrefetch(w.nodes[id], results, start, sample)
	}
}

// claimPrefetch commits node n's resolved lookups: it charges a rescue
// reply to each chosen supplier's uplink, falls back to the source where
// a lookup failed, counts every outcome, and puts the resulting transfers
// in flight to n (sequential code, so it may write n's shard's list).
func (w *World) claimPrefetch(n *Node, results []prefetch.LookupResult, start sim.Time, sample *metrics.RoundSample) {
	sample.LookupAttempts += int64(len(results))
	ar := &w.arenas[w.shardOf(n.ID)]
	for _, res := range results {
		sample.PrefetchRoutingBits += int64(res.RoutingMessages) * routingMessageBits
		if !res.Found {
			// Classify the failure — the repair pipeline's health
			// telemetry: routing rot, replica loss, and capacity
			// exhaustion need different cures.
			switch {
			case len(res.Owners) == 0:
				sample.LookupNoRoute++
			case !res.Held:
				sample.LookupNoBackup++
			default:
				sample.LookupNoRate++
			}
			// Last resort: a direct ask at the media source. Every
			// deployment has this path — the source generated the
			// segment and its address is channel metadata — and it is
			// what makes a segment whose k arc owners all churned away
			// recoverable at all. Charged to the source's uplink as a
			// rescue reply, refused once its 2·O horizon is spent, and
			// so taken from what the serve phase may grant.
			src := w.nodes[w.source]
			if src.Buf.Has(res.ID) && src.up.ChargeRescue() > 0 {
				n.seg.MarkPrefetch(res.ID, w.round+pendingExpiryRounds)
				sample.SourceRescues++
				sample.PrefetchRoutingBits += routingMessageBits
				direct := w.Latency(n.ID, w.source)
				transfer := bandwidth.PerSegment(src.Rates.Out, sim.Second)
				at := start + 2*direct + transfer + direct
				ar.later = append(ar.later, newDelivery(n.ID, w.source, res.ID, at, true))
			}
			continue
		}
		sample.LookupFound++
		supplier := overlay.NodeID(res.Supplier)
		sup := w.nodes[supplier]
		if sup.up.ChargeRescue() == 0 {
			continue // leftover vanished since the lookup
		}
		n.seg.MarkPrefetch(res.ID, w.round+pendingExpiryRounds)
		// t_fetch = locate + reply + request + retrieve (eq. 6): the
		// locate leg walks the routed path; the remaining three legs
		// are direct exchanges with the chosen supplier.
		direct := w.Latency(n.ID, supplier)
		transfer := bandwidth.PerSegment(int(res.Rate), sim.Second)
		at := start + sim.Time(res.LocateHops)*w.cfg.THop + 2*direct + transfer + direct
		ar.later = append(ar.later, newDelivery(n.ID, supplier, res.ID, at, true))
		// Everyone on the winning route overhears the exchange.
		w.overhearRoute(n.ID, res)
	}
}

// routePrefetch is the route stage: every triggered node's k hashed
// walks per missed segment, fanned out over the ownership shards' plans.
// Walks only read the overlay — membership and the nodes' DHT peer
// levels — and nothing writes either while they run: the claim stage,
// whose overhearing renews those same levels, starts after the last walk
// has ended. So a walk's outcome does not depend on when in the stage it
// runs, and every claim of the round sees routes walked over the tables
// as the round found them. Shard s appends its nodes' walks to its own
// arena in work-list × segment × replica order, where the claim stage
// reads them back with a cursor; the stage has nothing to fold. The last
// round's repair phase has swept every table after churn, so no level a
// walk reads names a departed node.
func (w *World) routePrefetch() {
	retr := w.retr
	sim.ForShards(w.pool, phaseShards, func(s int) {
		ar := &w.arenas[s]
		ar.walks = ar.walks[:0]
		for k, plan := range ar.plans {
			if plan.Triggered {
				ar.walks = retr.RouteAll(ar.walks, dht.ID(ar.nodes[k]), plan.Missed)
			}
		}
	})
}

// overhearRoute feeds routing-path observations into peer tables: each
// node its level peers, the paper's zero-cost maintenance channel.
func (w *World) overhearRoute(origin overlay.NodeID, res prefetch.LookupResult) {
	for _, owner := range res.Owners {
		oid := overlay.NodeID(owner)
		if on := w.nodes[oid]; on != nil {
			on.Table.Hear(origin, w.Latency(oid, origin))
		}
		if n := w.nodes[origin]; n != nil {
			n.Table.Hear(oid, w.Latency(origin, oid))
		}
	}
}
