package core

import (
	"continustreaming/internal/metrics"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// applyDeliveries ingests every arrival of the round, in canonical
// (timestamp, segment, sender) order per receiver, updating buffers,
// backup planes, α feedback and the traffic counters. Deliveries landing
// after the round boundary wait in the receiver shard's in-flight list
// (roundArena.later) for the round they land in.
//
// Receivers are partitioned into shards by node ID, and every shard
// collects its own arrivals — its due in-flight deliveries plus what each
// serve shard granted its receivers. A first parallel stage counts them
// per receiver (countArrivals); sequential code carves each shard's
// grouped copy from the world's pool at that size; the second stage
// places them grouped by receiver, each receiver's run in canonical order
// (eachReceiverRun), and applies them while counting into the shard's
// arena; foldCounts adds the shards' counts in shard order afterwards. A
// receiver belongs to exactly one shard, so all per-node mutation stays
// shard-local, and because compareArrival is a total order the outcome
// does not depend on the order the arrivals were collected in.
func (w *World) applyDeliveries(clock *sim.Clock, sample *metrics.RoundSample) {
	end := clock.RoundEnd()
	pos := w.playbackPos(w.round)
	p := w.cfg.Stream.Rate
	segBits := w.cfg.Stream.BitsPerSegment
	now := clock.Now()
	var due [phaseShards]int
	sim.ForShards(w.pool, phaseShards, func(s int) {
		due[s] = countArrivals(w.arenas, s, w.shardRank, end)
	})
	carveGroups(&w.lists.due, w.arenas, &due)
	sim.ForShards(w.pool, phaseShards, func(s int) {
		c := &w.arenas[s].counts
		*c = metrics.RoundSample{}
		eachReceiverRun(w.arenas, s, w.shardRank, end, func(run []delivery) {
			if n := w.nodes[run[0].to]; n != nil {
				w.applyToReceiver(n, run, pos, p, segBits, now, c)
			}
		})
	})
	w.foldCounts(sample)
}

// applyToReceiver ingests one receiver's ordered arrivals, accumulating the
// traffic counters into local, its shard's counts. Only the shard owning
// the receiver calls it.
func (w *World) applyToReceiver(n *Node, ds []delivery, pos segment.ID, p int, segBits int64, now sim.Time, local *metrics.RoundSample) {
	for _, d := range ds {
		id, at := segment.ID(d.id), sim.Time(d.at)
		deadline := w.deadlineOf(id, pos, p, now)
		if d.prefetch {
			local.PrefetchDataBits += segBits
			local.Prefetches++
			already := n.Buf.Has(id)
			stored := n.receive(id, at)
			switch {
			case already:
				// Gossip beat the pre-fetch: repeated data.
				local.Repeated++
				n.repeated++
				n.seg.ClearTag(id)
			case stored && at > deadline && id >= pos:
				// Arrived, but after its play moment: overdue.
				local.Overdue++
				n.overdue++
			}
			if stored {
				n.maybeBackup(w.space, id, w.cfg.Replicas)
			}
			continue
		}
		local.DataBits += segBits
		local.Deliveries++
		tagged := n.seg.Tagged(id)
		already := n.Buf.Has(id)
		stored := n.receive(id, at)
		n.Ctrl.ObserveDelivery(int(d.from), (at - now).Seconds())
		if tagged && (already || (stored && at <= deadline)) {
			// The scheduler delivered a segment the pre-fetch also
			// handled (or is handling): repeated data.
			local.Repeated++
			n.repeated++
			n.seg.ClearTag(id)
		}
		if stored {
			n.maybeBackup(w.space, id, w.cfg.Replicas)
		}
	}
}

// playbackPhase evaluates the continuity metric, starts nodes whose
// buffers have caught up, and applies α feedback. Each ownership shard
// counts its work list's nodes into its arena; foldCounts adds the
// shards' counts in shard order.
//
// The warm variant excludes nodes still inside their post-join warm-up
// window — the joiner ramp-up drag that the plain metric charges against
// the protocol. A round-r joiner is first evaluated here in round r+1, so
// warmth begins strictly after warmupRounds evaluated rounds (round -
// joined > warmupRounds); the initial population (JoinedRound -1) is warm
// from the start — the world is constructed converged, so its first rounds
// are not catch-up. In practice warm continuity sits at or above the plain
// metric (excluded joiners almost never play continuously), but that is an
// empirical tendency, not an enforced invariant: a joiner that catches up
// instantly counts in the plain numerator while excluded from the warm
// one.
func (w *World) playbackPhase(clock *sim.Clock, sample *metrics.RoundSample) {
	pos := w.playbackPos(w.round)
	p := w.cfg.Stream.Rate
	roundEnd := clock.RoundEnd()
	playingBegun := w.virtualPos(w.round) >= 0
	sim.ForShards(w.pool, phaseShards, func(s int) {
		ar := &w.arenas[s]
		c := &ar.counts
		*c = metrics.RoundSample{}
		for _, id := range ar.nodes {
			n := w.nodes[id]
			if n.IsSource {
				continue
			}
			c.PlayingNodes++ // denominator: every alive non-source node
			warm := n.JoinedRound < 0 || w.round-n.JoinedRound > warmupRounds
			if warm {
				c.WarmNodes++
			}
			if !n.Started && playingBegun && n.Buf.Has(pos) {
				n.Started = true
			}
			if n.Started {
				// The node played this round continuously iff every due
				// segment arrived by the end of the round it played in.
				continuous := true
				for off := 0; off < p; off++ {
					if !n.arrivedInTime(pos+segment.ID(off), roundEnd) {
						continuous = false
						break
					}
				}
				n.missedLastRound = !continuous
				if continuous {
					n.missStreak = 0
					c.ContinuousNodes++
					if warm {
						c.ContinuousWarmNodes++
					}
				} else {
					n.missStreak++
				}
			}
			if n.Alpha != nil {
				n.Alpha.Apply(n.overdue, n.repeated)
			}
			n.Ctrl.Tick()
		}
	})
	w.foldCounts(sample)
}

// btoi maps a bool onto {0, 1} for comparator arithmetic.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
