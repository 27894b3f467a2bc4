package core

import (
	"fmt"

	"continustreaming/internal/buffer"
	"continustreaming/internal/metrics"
	"continustreaming/internal/overlay"
	"continustreaming/internal/prefetch"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// exchangePhase is the per-round "periodic buffer information exchange":
// it accounts the exchange's control cost — each node receives one
// 620-bit map from every connected neighbour. The maps it stands for are
// the buffers themselves: no phase from here to the apply phase writes a
// buffer (push ran before, deliveries land in apply), so the schedule and
// serve phases read each neighbour's Buf in place and see exactly what an
// exchanged map would advertise.
func (w *World) exchangePhase(sample *metrics.RoundSample) {
	var control int64
	for _, id := range w.order {
		if id == w.source {
			continue
		}
		control += int64(w.degreeOf(id)) * buffer.WireBits(w.cfg.BufferSegments)
	}
	sample.ControlBits = control
}

// predictPhase runs the Urgent Line on every pre-fetch-enabled node and
// leaves one decision per work-list node in its shard's arena
// (roundArena.plans, aligned with roundArena.nodes); nodes without
// pre-fetch get zero decisions.
//
// Each ownership shard owns its word-scan scratch: missed-ID lists are
// carved from the shard's grow-only arena (valid until the shard's next
// round, after resolvePrefetch has consumed them) and the exclusion
// callback is the shard's hoisted closure, re-pointed per node.
func (w *World) predictPhase(clock *sim.Clock) {
	if !w.cfg.Profile.Prefetch {
		return
	}
	pos := w.playbackPos(w.round)
	p := w.cfg.Stream.Rate
	now := clock.Now()
	round := w.round
	sim.ForShards(w.pool, phaseShards, func(s int) {
		ar := &w.arenas[s]
		ar.predictIDs = ar.predictIDs[:0]
		ar.plans = ar.plans[:0]
		pc := &ar.predict
		pc.ensure(w)
		pc.pos, pc.p, pc.now, pc.round = pos, p, now, round
		for _, id := range ar.nodes {
			n := w.nodes[id]
			var d prefetch.Decision
			// The Urgent Line protects an active playback; a node that
			// has not started yet has no deadlines to defend.
			if !n.IsSource && n.Alpha != nil && n.Started {
				pc.n = n
				d, ar.predictIDs = prefetch.PredictInto(ar.predictIDs, &n.Buf, pos, n.Alpha.Value(), w.cfg.PrefetchLimit, pc.exclude)
			}
			ar.plans = append(ar.plans, d)
		}
	})
}

// schedulePhase runs each node's scheduling policy against its neighbours'
// buffers and leaves the requests on the node (Node.asks), where its
// suppliers' serve shards read them. The inbound budget reserves room for
// this round's pre-fetches ("the on-demand data retrieval algorithm
// shares the inbound rate with the data scheduling algorithm").
//
// Each ownership shard schedules its own nodes with a reusable scratch:
// the candidate-enumeration buffers reset per node, and the policy
// scratch whose request arena backs the nodes' asks until the transfer
// resolution consumes them. Every node write lands on the node being
// scheduled, so the output is identical at any worker count. The shard
// also tallies what the serve phase's grant hand-off must hold room for:
// the asks its nodes send each supplier shard (asksTo) and the requests
// they carry for each receiver shard (carryTo); and it opens the round's
// counts with its nodes' requests, which the serve phase adds to.
func (w *World) schedulePhase(clock *sim.Clock) {
	pos := w.playbackPos(w.round)
	vpos := w.virtualPos(w.round)
	fetchWin := segment.Window{Lo: pos, Hi: w.fetchEdge(w.round)}
	round := w.round
	now := clock.Now()
	sim.ForShards(w.pool, phaseShards, func(s int) {
		ar := &w.arenas[s]
		ar.sched.Reset()
		clear(ar.asksTo[:])
		clear(ar.carryTo[:])
		c := &ar.counts
		*c = metrics.RoundSample{}
		for _, id := range ar.nodes {
			n := w.nodes[id]
			n.asks = nil
			for _, req := range n.carry {
				ar.carryTo[w.shardOf(req.Requester)]++
			}
			if n.IsSource {
				continue
			}
			// Push and pull share the inbound rate: segments the eager
			// push already landed on this node's link this round come
			// out of the same I·τ the scheduler may spend.
			budget := n.Rates.In - n.pushReceived
			if budget <= 0 {
				continue
			}
			cands := w.candidatesFor(ar, n, fetchWin, round)
			if len(cands) == 0 {
				continue
			}
			in := scheduler.Input{
				PriorityInput: scheduler.PriorityInput{
					Play:         vpos,
					PlaybackRate: w.cfg.Stream.Rate,
					BufferSize:   w.cfg.BufferSegments,
					NoPlayback:   !n.Started,
				},
				Tau:           w.cfg.Tau,
				InboundBudget: budget,
				Candidates:    cands,
				Scratch:       &ar.sched,
				JitterSeed:    w.cfg.Seed ^ uint64(n.ID)*0x9e3779b97f4a7c15 ^ n.Gen*0xd1342543de82ef95,
				RarityNoise:   w.cfg.RarityNoise,
			}
			reqs := w.policy.Schedule(in)
			// NoteRequested only adds to the supplier's row, and the
			// controller keeps its rows sorted by ID, so the order the
			// asks are tallied in cannot matter.
			for _, req := range reqs {
				n.seg.MarkGossip(req.ID, round+pendingExpiryRounds, now+req.ExpectedAt)
				n.Ctrl.NoteRequested(req.Supplier, 1)
				ar.asksTo[w.shardOf(overlay.NodeID(req.Supplier))]++
			}
			n.asks = reqs
			c.Requests += int64(len(reqs))
		}
	})
}

// candidatesFor enumerates the fresh segments any connected neighbour
// advertises inside the fetch window, with per-supplier rate estimates and
// FIFO positions: it lines up the alive neighbours' live buffer words
// (read in place; see exchangePhase) and hands them, the node's own words
// and its tracker to the enumeration the livenet peer shares
// (scheduler.Enumeration.Candidates). beginRound advances every buffer to
// the shared playback position before the exchange, so the neighbours'
// words, the node's own words and the fetch window share one bit origin;
// the output lists IDs ascending and suppliers in neighbour order, as a
// per-ID scan would.
//
// Alignment is an invariant of the round pipeline, not a case to handle:
// a node or neighbour buffer whose window opens elsewhere is a sequencing
// bug and panics.
//
// The returned candidates (and their supplier subslices) alias ar's
// enumeration buffers and are valid only until the next candidatesFor call
// on the same arena — exactly the scheduling call that consumes them.
func (w *World) candidatesFor(ar *roundArena, n *Node, win segment.Window, round int) []scheduler.Candidate {
	own := &n.Buf
	if hi := win.Lo + segment.ID(own.Size()); win.Hi > hi {
		win.Hi = hi
	}
	if own.Lo() != win.Lo {
		panic(fmt.Sprintf("core: node %d schedules window [%d,%d) with its buffer at %d; beginRound advances every buffer to the playback position first",
			n.ID, win.Lo, win.Hi, own.Lo()))
	}
	live := ar.candLive[:0]
	for _, nb := range n.Table.Neighbors() {
		m := w.nodes[nb]
		if m == nil {
			continue // neighbour died this round; maintenance will repair
		}
		live = append(live, scheduler.NeighborWords{
			Node: int(nb), Rate: n.Ctrl.Rate(int(nb)), Tail: w.cfg.BufferSegments,
			Bits: w.alignedWords(&m.Buf, win.Lo, n.ID, nb),
		})
	}
	ar.candLive = live
	return ar.enum.Candidates(live, own.Words(), int(win.Hi-win.Lo), win.Lo, &n.seg, round)
}

// alignedWords returns the live availability words of reader's neighbour
// nb's buffer buf, after checking the invariant the word paths rest on:
// every buffer opens at the round's playback position pos at full window
// size, because beginRound advances every buffer before the exchange. A
// buffer that opens elsewhere is a sequencing bug, not input, and panics.
// The words are read in place, so the caller must not hold them past the
// serve phase: the apply phase writes buffers next.
func (w *World) alignedWords(buf *buffer.Buffer, pos segment.ID, reader, nb overlay.NodeID) []uint64 {
	if buf.Lo() != pos || buf.Size() != w.cfg.BufferSegments {
		panic(fmt.Sprintf("core: node %d reads neighbour %d's buffer [%d,%d) in a round whose windows open at %d with %d segments",
			reader, nb, buf.Lo(), buf.Hi(), pos, w.cfg.BufferSegments))
	}
	return buf.Words()
}
