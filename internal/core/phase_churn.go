package core

import (
	"slices"
	"sort"

	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/sim"
)

// churnPhase executes the dynamic environment: the configured fractions
// of leaves (graceful handover or abrupt failure) and joins (§5.2).
func (w *World) churnPhase() {
	if w.churnProc == nil {
		return
	}
	candidates := make([]overlay.NodeID, 0, len(w.order)-1)
	for _, id := range w.order {
		if id != w.source {
			candidates = append(candidates, id)
		}
	}
	plan := w.churnProc.Next(w.round, len(candidates))
	for _, idx := range plan.GracefulLeavers {
		w.leave(candidates[idx], true)
	}
	for _, idx := range plan.AbruptLeavers {
		w.leave(candidates[idx], false)
	}
	if plan.TotalLeavers() > 0 {
		// Drop cross-round deliveries addressed to this round's departed
		// nodes in one pass over the shards' in-flight lists: their
		// connections are gone, and a joiner recycling a ring slot must
		// not inherit them. One pass per round (not per leaver) keeps
		// churn O(in flight + leavers). Transfers the dead sent while
		// alive still arrive — packets already on the wire — matching the
		// pre-recycling behaviour.
		for s := range w.arenas {
			ar := &w.arenas[s]
			ar.later = slices.DeleteFunc(ar.later, func(d delivery) bool { return w.nodes[d.to] == nil })
		}
		// Same recycling hazard on the supplier side: carried requests
		// from this round's leavers must go before any joiner can reuse
		// their ring slots and pass the serve-time liveness check. (w.seq
		// still lists the leavers; their queues are as dead as they are.)
		departed := func(r protocol.Request) bool { return w.nodes[r.Requester] == nil }
		for _, n := range w.seq {
			n.carry = slices.DeleteFunc(n.carry, departed)
		}
	}
	for j := 0; j < plan.Joins; j++ {
		w.join()
	}
	if plan.TotalLeavers() > 0 || plan.Joins > 0 {
		w.rebuildOrder()
	}
}

// leave removes a node. Graceful leavers hand their VoD backup to the
// counter-clockwise closest node (§4.3) and deregister from the RP; abrupt
// failures just vanish — neighbours and the RP discover it later.
func (w *World) leave(id overlay.NodeID, graceful bool) {
	n := w.nodes[id]
	if n == nil || id == w.source {
		return
	}
	if graceful {
		// Predecessor: owner of the key just before our ID.
		if pred, ok := w.dhtNet.Owner(w.space.Wrap(int(id) - 1)); ok && overlay.NodeID(pred) != id {
			if pn := w.nodes[overlay.NodeID(pred)]; pn != nil {
				pn.Backup.Merge(n.Backup.Drain())
			}
		}
		w.rp.ReportFailure(id)
	}
	// Copy the neighbour list before tearing the edges down.
	nbs := append([]overlay.NodeID(nil), w.neighborsOf(id)...)
	for _, nb := range nbs {
		w.removeEdge(id, nb)
	}
	w.dhtNet.Leave(dht.ID(id))
	w.nodes[id] = nil
	// The tracker's arrays go to the next joiner (buildNode).
	w.freeSeg = append(w.freeSeg, n.seg)
	n.seg = buffer.Track{}
	w.outUsed[id] = 0
	// The ring slot is free again; without recycling, sustained churn
	// exhausts the ID space long before the paper's 40-round tracks end.
	// churnPhase purges the in-flight deliveries addressed to this round's
	// leavers before any joiner can reuse a slot. Other nodes' views of
	// the ID (overheard peer-table entries, decaying rate estimates) are
	// deliberately NOT scrubbed: that would cost a world scan per leaver,
	// and the staleness models address reuse — rankings self-correct
	// because latency is measured fresh and supply credit decays every
	// Tick, while the recycled node's own state is fully fresh
	// (generation-salted streams below, empty buffers, ledgers and carry
	// queue — the promises of this node's buffer went with it).
	w.rp.Release(id)
	// A future joiner reusing this slot must not replay the dead node's
	// random streams; the generation counter salts its derivations.
	w.idGen[id]++
}

// join admits one new node through the RP protocol: assign an ID, ping the
// candidate list, adopt the nearest alive node's peer table as a base,
// wire up to M neighbours, and join the DHT. The newcomer starts playback
// once its buffer catches the shared position, "following its neighbours'
// current steps" rather than fetching history.
func (w *World) join() {
	id := w.rp.AssignID(w.rng)
	ping := 10*sim.Millisecond + sim.Time(w.rng.Intn(191))
	n := w.buildNode(id, ping, false)
	n.JoinedRound = w.round
	// The newcomer's buffer opens at the current playback position, where
	// buildNode already opened its segment tracker.
	n.Buf.AdvanceTo(w.playbackPos(w.round))
	cands := w.rp.Candidates(id, 6)
	var donor *Node
	for _, c := range cands {
		if cn := w.nodes[c]; cn != nil {
			if donor == nil || w.Latency(id, c) < w.Latency(id, donor.ID) {
				donor = cn
			}
		} else {
			w.rp.ReportFailure(c)
		}
	}
	w.admit(n)
	if donor == nil {
		// RP list was fully stale; fall back to a uniform alive node so
		// the newcomer is never stranded.
		alive := w.order
		if len(alive) > 0 {
			donor = w.nodes[alive[w.rng.Intn(len(alive))]]
		}
	}
	if donor != nil {
		n.Table.CloneFrom(donor.Table, func(o overlay.NodeID) sim.Time { return w.Latency(id, o) })
		donor.Table.Hear(id, w.Latency(donor.ID, id))
	}
	// Connect up to M lowest-latency known peers.
	type cand struct {
		id  overlay.NodeID
		lat sim.Time
	}
	var pool []cand
	seen := map[overlay.NodeID]bool{id: true}
	consider := func(c overlay.NodeID) {
		if c < 0 || seen[c] || w.nodes[c] == nil {
			return
		}
		seen[c] = true
		pool = append(pool, cand{id: c, lat: w.Latency(id, c)})
	}
	if donor != nil {
		consider(donor.ID)
		for _, nb := range donor.Table.Neighbors() {
			consider(nb)
		}
	}
	for _, o := range n.Table.OverheardNodes() {
		consider(o.ID)
	}
	for _, c := range cands {
		consider(c)
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].lat != pool[j].lat {
			return pool[i].lat < pool[j].lat
		}
		return pool[i].id < pool[j].id
	})
	for _, c := range pool {
		if len(n.Table.Neighbors()) >= w.cfg.M {
			break
		}
		w.addEdge(id, c.id)
	}
}
