package core

import (
	"continustreaming/internal/metrics"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// phaseShards is the fixed shard count of the sharded round phases
// (transfer resolution, delivery application, outbound accounting). It is
// a constant — never derived from the worker count — so shard assignment,
// per-shard accumulation, and the shard-order merges are identical no
// matter how many workers execute them; that invariant is what makes a
// run's output bit-identical for a fixed seed at any parallelism.
const phaseShards = 64

// Phase tags keying the seeds of the two phases that draw randomness.
const (
	phaseRepair = 0x3b97
	phasePush   = 0x48c9
)

// phaseSeed keys one phase invocation's randomness by (master seed, round,
// phase), so no two phases ever share a stream. It is a pure function of
// configuration and round index, which preserves the worker-count
// independence of the pipeline.
func (w *World) phaseSeed(phase uint64) uint64 {
	return w.cfg.Seed ^ (uint64(w.round)+1)*0x9e3779b97f4a7c15 ^ phase*0xd1342543de82ef95
}

// Step executes one scheduling period as a sequence of barrier-separated
// phases. Each phase is a thin sharded driver over the decision functions
// in internal/protocol, and every parallel phase fans the same ownership
// shards out over the worker pool: shard s walks its work list
// (roundArena.nodes, rebuilt by rebuildOrder at each membership change),
// or in a push hop its push frontier (roundArena.held, refilled by the
// hop's sequential apply), and writes only what the shard owns. A
// supplier's shard reads the asks addressed to it in place from its
// neighbours' scheduled requests, as a node's shard reads the gossip its
// neighbours drew for it in maintenance, and suppliers' grants pass to
// receiver shards through per-producer lists laid out by destination
// shard at the round's size and read after a barrier, with only counters
// merged in shard order; the pre-fetch phase predicts and routes per
// shard and then commits supplier claims in ascending ID order; churn,
// which rewires shared structures, runs deterministically
// single-threaded. No phase needs the round's deliveries in one sequence:
// a receiver applies its arrivals in compareArrival order, which is
// total, so between the serve and playback probes the spine does no
// per-delivery work, and the schedule and serve phases read neighbours'
// buffers in place (see exchangePhase). The per-phase drivers live in the
// phase_*.go files of this package.
func (w *World) Step(clock *sim.Clock) {
	w.round = clock.Round()
	sample := metrics.RoundSample{Round: w.round}

	w.probe("begin")
	w.beginRound()
	// The fresh-segment push runs before the buffer-map exchange: the
	// source and its first-generation holders eagerly forward this
	// round's new segments for their first PushHops mesh hops, so the
	// buffers the exchange advertises already hold a several-generation-
	// deep epidemic and pull scheduling starts from dozens of seeded
	// copies instead of one.
	w.probe("push")
	w.pushPhase(clock, &sample)
	w.probe("exchange")
	w.exchangePhase(&sample)
	// The Urgent Line runs before scheduling: segments it predicts missed
	// — holes at the deadline edge that no in-flight transfer will cover
	// (§1's three motivating cases) — go to the DHT retrieval path, and
	// the gossip scheduler then treats them as already in flight. Letting
	// gossip chase those same at-deadline holes instead would burn the
	// inbound budget that must keep the pipeline of future segments
	// flowing; off-loading deadline rescue to the DHT is exactly the
	// division of labour the paper's design argues for.
	w.probe("predict")
	w.predictPhase(clock)
	w.probe("prefetch")
	w.resolvePrefetch(clock, &sample)
	w.probe("schedule")
	w.schedulePhase(clock)
	w.probe("serve")
	w.resolveTransfers(clock, &sample)
	w.probe("apply")
	w.applyDeliveries(clock, &sample)
	w.probe("playback")
	w.playbackPhase(clock, &sample)
	w.probe("maintenance")
	w.maintenancePhase()
	w.probe("churn")
	w.churnPhase()
	w.probe("dhtrepair")
	w.dhtRepairPhase()
	w.collector.Record(sample)
	w.probe("")
}

// probe reports a phase boundary to the configured PhaseProbe, if any.
// Always called from Step's sequential spine, never from workers.
func (w *World) probe(phase string) {
	if w.cfg.PhaseProbe != nil {
		w.cfg.PhaseProbe(phase)
	}
}

// beginRound advances buffer windows to the round's playback position,
// expires stale request state, resets outbound accounting, and lets the
// source ingest the segments generated before this round started.
func (w *World) beginRound() {
	pos := w.playbackPos(w.round)
	live := w.liveEdge(w.round)
	src := w.nodes[w.source]
	sim.ForShards(w.pool, phaseShards, func(s int) {
		for _, id := range w.arenas[s].nodes {
			n := w.nodes[id]
			// The tracker slides with the buffer and drops the backups
			// the window passed; request records the window has not
			// passed expire lazily (expiry > round at every read).
			n.Buf.AdvanceTo(pos)
			n.seg.AdvanceTo(pos)
			n.overdue, n.repeated, n.pushReceived = 0, 0, 0
			n.up.Open(n.Rates.Out, w.cfg.Tau)
		}
	})
	// Source ingestion happens after the window advance so new segments
	// land inside the window: the source disseminates segments within the
	// same period it generates them.
	for id := live; id < w.fetchEdge(w.round); id++ {
		if id < 0 {
			continue
		}
		if src.Buf.Insert(id) {
			src.seg.NoteArrived(id, w.cfg.Stream.GeneratedAt(id))
		}
	}
}

// fetchEdge returns one past the newest segment obtainable during round r:
// everything the source emits before the round ends.
func (w *World) fetchEdge(round int) segment.ID {
	return segment.ID((round + 1) * w.cfg.Stream.Rate)
}

// deadlineOf returns the latest useful arrival time of segment id for a
// node at position pos at round start `now`: the end of the scheduling
// period in which the segment plays. Sub-period timing is below the
// model's resolution (real peers jitter-buffer within the period; the
// paper's t_fetch < τ rescue depends on mid-period arrivals counting).
func (w *World) deadlineOf(id segment.ID, pos segment.ID, p int, now sim.Time) sim.Time {
	if id < pos {
		return now // already due
	}
	roundsAhead := sim.Time(int(id-pos) / p)
	return now + (roundsAhead+1)*w.cfg.Tau
}
