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

// pushSeg is one push frontier entry: holder received segment id at
// readyAt, and forwards it from there in the next hop.
type pushSeg struct {
	holder  overlay.NodeID
	id      segment.ID
	readyAt sim.Time
}

// pushSend is one send a push hop plans, carrying the instant its pusher
// received the segment.
type pushSend struct {
	protocol.Send
	readyAt sim.Time
}

// pushPhase eagerly forwards this round's freshly generated segments
// along mesh edges for their first PushHops hops — the dissemination
// engine's answer to the depth gap: a pure-pull epidemic starting from
// one copy needs more doubling rounds than the playback delay allows at
// 8000+ nodes, while a push-seeded one starts several generations deep.
// Hop 1 is the source spraying its connected neighbours; hop h+1 is every
// hop-h receiver forwarding what it just received. The per-pusher send
// plan is protocol.PlanPushMask, made on the shard's PushScratch within
// the pusher's Uplink.PushRoom; this phase owns the sharding and the
// delivery bookkeeping.
//
// The frontier lives in the ownership shards' arenas (roundArena.held):
// hop 1 seeds the source's shard (seedPush), and each hop's shards walk
// their own frontier runs and plan into their own sends, which are then
// applied sequentially in shard order (pushHop), each charged to its
// pusher's uplink there and each new holder appended to its own shard's
// frontier, so the phase is bit-identical at any worker count. Two
// same-hop pushers in different shards may race a copy to the same
// target; the loser is counted as a push duplicate, exactly the
// redundancy a real eager-push mesh pays.
func (w *World) pushPhase(clock *sim.Clock, sample *metrics.RoundSample) {
	hops := w.cfg.PushHops
	if hops <= 0 || !w.cfg.Profile.Engine {
		return
	}
	for hop, frontier := 1, w.seedPush(clock.Now()); hop <= hops && frontier > 0; hop++ {
		frontier = w.pushHop(hop, hop < hops, clock, sample)
	}
}

// freshWindow is the round's fresh segments: one round's worth
// (Config.Validate bounds Stream.Rate to 64), so a push availability probe
// is one missing-mask word per neighbour.
func (w *World) freshWindow() segment.Window {
	return segment.Window{Lo: max(w.liveEdge(w.round), 0), Hi: w.fetchEdge(w.round)}
}

// seedPush puts the fresh segments the source holds on its shard's
// frontier, ready at start, and returns how many it put there. Every
// shard's frontier is empty between push phases: each hop empties it, and
// the last hop forwards nothing.
func (w *World) seedPush(start sim.Time) int {
	ar := &w.arenas[w.shardOf(w.source)]
	win := w.freshWindow()
	for id := win.Lo; id < win.Hi; id++ {
		if w.nodes[w.source].Buf.Has(id) {
			ar.held = append(ar.held, pushSeg{holder: w.source, id: id, readyAt: start})
		}
	}
	return len(ar.held)
}

// pushHop runs one hop. Each shard walks its frontier runs — holders
// ascending, each holder's run in arrival order — planning every pusher's
// sends (pure reads of target buffers) into its sends list, each send
// carrying when its pusher received the segment, and empties its
// frontier. The sends are then delivered sequentially in shard order,
// anchored at that ready-at so no node forwards a copy before it arrived;
// when forward is set each new holder joins its shard's frontier for the
// next hop. pushHop returns how many entries joined.
func (w *World) pushHop(hop int, forward bool, clock *sim.Clock, sample *metrics.RoundSample) (frontier int) {
	win := w.freshWindow()
	seed := w.phaseSeed(phasePush ^ uint64(hop)<<20)
	// pushReceived lags the current hop's own sends (cross-shard state,
	// constant while the hop plans), which only lets the final hop
	// overshoot by the in-flight few — counted on arrival below.
	lacks := func(to overlay.NodeID) uint64 {
		t := w.nodes[to]
		// A dead or inbound-saturated target accepts nothing this hop.
		if t == nil || t.pushReceived >= t.Rates.In {
			return 0
		}
		return t.Buf.MissingMask(win)
	}
	sim.ForShards(w.pool, phaseShards, func(s int) {
		ar := &w.arenas[s]
		ar.sends = ar.sends[:0]
		// Stable, so each holder forwards in the order it received.
		slices.SortStableFunc(ar.held, func(a, b pushSeg) int { return cmp.Compare(a.holder, b.holder) })
		for i := 0; i < len(ar.held); {
			id := ar.held[i].holder
			j := i + 1
			for j < len(ar.held) && ar.held[j].holder == id {
				j++
			}
			run := ar.held[i:j]
			i = j
			budget := w.nodes[id].up.PushRoom()
			if budget <= 0 {
				continue
			}
			ar.segs = ar.segs[:0]
			for _, ps := range run {
				ar.segs = append(ar.segs, ps.id)
			}
			// Salting the plan seed per pusher decorrelates target
			// orders, so pushers sharing neighbours spray different
			// prefixes instead of racing to the same targets.
			for _, snd := range ar.push.Plan(seed^uint64(id)*0x9e3779b97f4a7c15, id, win.Lo, ar.segs, w.neighborsOf(id), lacks, budget) {
				k := slices.IndexFunc(run, func(ps pushSeg) bool { return ps.id == snd.ID })
				ar.sends = append(ar.sends, pushSend{Send: snd, readyAt: run[k].readyAt})
			}
		}
		ar.held = ar.held[:0]
	})

	start, end := clock.Now(), clock.RoundEnd()
	for s := range w.arenas {
		for _, snd := range w.arenas[s].sends {
			t := w.nodes[snd.To]
			if t == nil {
				continue
			}
			// Every transmitted push occupies both links — the pusher's
			// wire slot and the target's inbound — duplicates included;
			// the pull scheduler's budget below shrinks accordingly.
			up := &w.nodes[snd.From].up
			t.pushReceived++
			at := snd.readyAt + up.WireAt(up.ChargePush()) + w.Latency(snd.From, snd.To)
			ar := &w.arenas[w.shardOf(snd.To)]
			if at > end {
				// The pusher's wire ran past the round boundary: the copy
				// is an ordinary transfer in flight, applied, counted and
				// advertised only when it lands — same rule as every late
				// pull or pre-fetch delivery. Landing it now would let the
				// next hop (and this round's snapshots) see a segment
				// before it arrived.
				ar.later = append(ar.later, newDelivery(snd.To, snd.From, snd.ID, at, false))
				continue
			}
			sample.DataBits += w.cfg.Stream.BitsPerSegment
			sample.Deliveries++
			if !t.receive(snd.ID, at) {
				sample.PushDuplicates++
				continue
			}
			sample.PushDeliveries++
			t.Ctrl.ObserveDelivery(int(snd.From), (at - start).Seconds())
			t.maybeBackup(w.space, snd.ID, w.cfg.Replicas)
			if forward {
				ar.held = append(ar.held, pushSeg{holder: snd.To, id: snd.ID, readyAt: at})
				frontier++
			}
		}
	}
	return frontier
}
