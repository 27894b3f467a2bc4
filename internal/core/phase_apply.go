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
// (eachReceiverRun), and applies them while accumulating into a private
// metric sample; the per-shard samples are folded in shard order
// afterwards. A receiver belongs to exactly one shard, so
// all per-node mutation stays shard-local, and because compareArrival is
// a total order the outcome does not depend on the order the arrivals
// were collected in.
func (w *World) applyDeliveries(clock *sim.Clock, sample *metrics.RoundSample) {
	end := clock.RoundEnd()
	pos := w.playbackPos(w.round)
	p := w.cfg.Stream.Rate
	segBits := w.cfg.Stream.BitsPerSegment
	now := clock.Now()
	var due [phaseShards]int
	sim.MapReduce(w.pool, phaseShards,
		func(s int) int { return countArrivals(w.arenas, s, w.shardRank, end) },
		func(s, n int) { due[s] = n })
	carveGroups(&w.lists.due, w.arenas, &due, func(ar *roundArena) *[]delivery { return &ar.applyBucket })
	sim.MapReduce(w.pool, phaseShards,
		func(s int) metrics.RoundSample {
			var local metrics.RoundSample
			eachReceiverRun(w.arenas, s, w.shardRank, end, func(run []delivery) {
				if n := w.nodes[run[0].to]; n != nil {
					w.applyToReceiver(n, run, pos, p, segBits, now, &local)
				}
			})
			return local
		},
		func(_ int, local metrics.RoundSample) {
			sample.DataBits += local.DataBits
			sample.PrefetchDataBits += local.PrefetchDataBits
			sample.Deliveries += local.Deliveries
			sample.Prefetches += local.Prefetches
			sample.Overdue += local.Overdue
			sample.Repeated += local.Repeated
		})
}

// applyToReceiver ingests one receiver's ordered arrivals, accumulating the
// traffic counters into local. Only the shard owning the receiver calls it.
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
// buffers have caught up, and applies α feedback.
func (w *World) playbackPhase(clock *sim.Clock, sample *metrics.RoundSample) {
	pos := w.playbackPos(w.round)
	p := w.cfg.Stream.Rate
	roundEnd := clock.RoundEnd()
	playingBegun := w.virtualPos(w.round) >= 0
	type result struct {
		playing    bool
		continuous bool
	}
	results := make([]result, len(w.order))
	w.pool.ForEach(len(w.order), func(i int) {
		n := w.seq[i]
		if n.IsSource {
			return
		}
		if !n.Started && playingBegun && n.Buf.Has(pos) {
			n.Started = true
		}
		results[i].playing = n.Started
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
			results[i].continuous = continuous
			n.missedLastRound = !continuous
			if continuous {
				n.missStreak = 0
			} else {
				n.missStreak++
			}
		}
		if n.Alpha != nil {
			n.Alpha.Apply(n.overdue, n.repeated)
		}
		n.Ctrl.Tick()
	})
	// The warm variant excludes nodes still inside their post-join
	// warm-up window — the joiner ramp-up drag that the plain metric
	// charges against the protocol. A round-r joiner is first evaluated
	// here in round r+1, so warmth begins strictly after WarmupRounds
	// evaluated rounds (round - joined > WarmupRounds); the initial
	// population (JoinedRound -1) is warm from the start — the world is
	// constructed converged, so its first rounds are not catch-up. In
	// practice warm continuity sits at or above the plain metric
	// (excluded joiners almost never play continuously), but that is an
	// empirical tendency, not an enforced invariant: a joiner that
	// catches up instantly counts in the plain numerator while excluded
	// from the warm one.
	for i, id := range w.order {
		if id == w.source {
			continue
		}
		sample.PlayingNodes++ // denominator: every alive non-source node
		n := w.nodes[id]
		warm := n.JoinedRound < 0 || w.round-n.JoinedRound > w.cfg.WarmupRounds
		if warm {
			sample.WarmNodes++
		}
		if results[i].playing && results[i].continuous {
			sample.ContinuousNodes++
			if warm {
				sample.ContinuousWarmNodes++
			}
		}
	}
}

// btoi maps a bool onto {0, 1} for comparator arithmetic.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
