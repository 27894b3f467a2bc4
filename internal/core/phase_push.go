package core

import (
	"cmp"
	"slices"

	"continustreaming/internal/metrics"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// pushPhase eagerly forwards this round's freshly generated segments
// along mesh edges for their first PushHops hops — the dissemination
// engine's answer to the depth gap: a pure-pull epidemic starting from
// one copy needs more doubling rounds than the playback delay allows at
// 8000+ nodes, while a push-seeded one starts several generations deep.
// Hop 1 is the source spraying its connected neighbours; hop h+1 is every
// hop-h receiver forwarding what it just received. The per-pusher send
// plan is protocol.PlanPushMask, within the pusher's Uplink.PushRoom; this
// driver owns the sharding and the delivery bookkeeping.
//
// Each hop fans out over shards: pushers are partitioned by the
// supplier-ownership shard, each shard plans its pushers' sends (pure
// reads of target buffers) into its own slot, and the sends are applied
// sequentially in shard order afterwards, each charged to its pusher's
// uplink there, so the phase is bit-identical at any worker count. Two
// same-hop pushers in different shards may race a copy to the same
// target; the loser is counted as a push duplicate, exactly the
// redundancy a real eager-push mesh pays.
func (w *World) pushPhase(clock *sim.Clock, sample *metrics.RoundSample) {
	hops := w.cfg.PushHops
	if hops <= 0 || !w.cfg.Profile.Engine {
		return
	}
	lo := w.liveEdge(w.round)
	if lo < 0 {
		lo = 0
	}
	hi := w.fetchEdge(w.round)
	src := w.nodes[w.source]
	fresh := make([]segment.ID, 0, int(hi-lo))
	for id := lo; id < hi; id++ {
		if src.Buf.Has(id) {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) == 0 {
		return
	}
	start := clock.Now()
	end := clock.RoundEnd()
	segBits := w.cfg.Stream.BitsPerSegment
	// The frontier lists every (holder, segment) pair the next hop
	// forwards, sorted by holder and, within one holder, in arrival
	// order; each entry carries the instant its holder actually received
	// the segment, and hop h+1 sends anchor there, so no node ever
	// forwards a copy at a simulated time before it arrived.
	type pushSeg struct {
		holder  overlay.NodeID
		id      segment.ID
		readyAt sim.Time
	}
	frontier := make([]pushSeg, len(fresh))
	for i, id := range fresh {
		frontier[i] = pushSeg{holder: w.source, id: id, readyAt: start}
	}
	// heldBy is the holder's run of the frontier.
	heldBy := func(holder overlay.NodeID) []pushSeg {
		i, _ := slices.BinarySearchFunc(frontier, holder, func(ps pushSeg, h overlay.NodeID) int {
			return cmp.Compare(ps.holder, h)
		})
		j := i
		for j < len(frontier) && frontier[j].holder == holder {
			j++
		}
		return frontier[i:j]
	}
	for hop := 1; hop <= hops && len(frontier) > 0; hop++ {
		// Pushers in ascending order, partitioned by owning shard.
		byShard := make([][]overlay.NodeID, phaseShards)
		for i, ps := range frontier {
			if i == 0 || ps.holder != frontier[i-1].holder {
				s := w.shardOf(ps.holder)
				byShard[s] = append(byShard[s], ps.holder)
			}
		}
		seed := w.phaseSeed(phasePush ^ uint64(hop)<<20)
		planned := make([][]protocol.Send, phaseShards)
		sim.ForShards(w.pool, phaseShards, func(s int) {
			var out []protocol.Send
			for _, id := range byShard[s] {
				n := w.nodes[id]
				budget := n.up.PushRoom()
				if budget <= 0 {
					continue
				}
				held := heldBy(id)
				segs := make([]segment.ID, len(held))
				for i, ps := range held {
					segs[i] = ps.id
				}
				// Salting the plan seed per pusher decorrelates target
				// orders, so pushers sharing neighbours spray different
				// prefixes instead of racing to the same targets.
				//
				// The fresh window is one round's worth of segments
				// (Config.Validate bounds Stream.Rate to 64), so the
				// availability probe is one missing-mask word per
				// neighbour. pushReceived lags the current hop's own sends
				// (cross-shard state, constant while the hop plans), which
				// only lets the final hop overshoot by the in-flight few —
				// counted on arrival below.
				sends := protocol.PlanPushMask(seed^uint64(id)*0x9e3779b97f4a7c15, id, lo, segs, w.neighborsOf(id),
					func(to overlay.NodeID) uint64 {
						t := w.nodes[to]
						// A dead or inbound-saturated target accepts
						// nothing this hop.
						if t == nil || t.pushReceived >= t.Rates.In {
							return 0
						}
						return t.Buf.MissingMask(segment.Window{Lo: lo, Hi: hi})
					}, budget)
				out = append(out, sends...)
			}
			planned[s] = out
		})

		// readyAt finds when a pusher obtained a segment by scanning its
		// frontier run — a handful of fresh segments.
		readyAt := func(from overlay.NodeID, id segment.ID) sim.Time {
			for _, ps := range heldBy(from) {
				if ps.id == id {
					return ps.readyAt
				}
			}
			return start
		}
		var next []pushSeg
		for _, sends := range planned {
			for _, snd := range sends {
				t := w.nodes[snd.To]
				if t == nil {
					continue
				}
				// Every transmitted push occupies both links — the
				// pusher's wire slot and the target's inbound —
				// duplicates included; the pull scheduler's budget below
				// shrinks accordingly.
				up := &w.nodes[snd.From].up
				t.pushReceived++
				at := readyAt(snd.From, snd.ID) + up.WireAt(up.ChargePush()) + w.Latency(snd.From, snd.To)
				if at > end {
					// The pusher's wire ran past the round boundary: the
					// copy is an ordinary transfer in flight, applied,
					// counted and advertised only when it lands — same
					// rule as every late pull or pre-fetch delivery.
					// Landing it now would let the next hop (and this
					// round's snapshots) see a segment before it arrived.
					ar := &w.arenas[w.shardOf(snd.To)]
					ar.later = append(ar.later, newDelivery(snd.To, snd.From, snd.ID, at, false))
					continue
				}
				sample.DataBits += segBits
				sample.Deliveries++
				if !t.receive(snd.ID, at) {
					sample.PushDuplicates++
					continue
				}
				sample.PushDeliveries++
				t.Ctrl.ObserveDelivery(int(snd.From), (at - start).Seconds())
				t.maybeBackup(w.space, snd.ID, w.cfg.Replicas)
				next = append(next, pushSeg{holder: snd.To, id: snd.ID, readyAt: at})
			}
		}
		// Stable, so each new holder forwards in the order it received.
		slices.SortStableFunc(next, func(a, b pushSeg) int { return cmp.Compare(a.holder, b.holder) })
		frontier = next
	}
}
