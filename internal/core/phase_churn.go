package core

import (
	"cmp"
	"slices"

	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/sim"
)

// joinCand is one peer a joiner may wire to, with its measured latency.
type joinCand struct {
	id  overlay.NodeID
	lat sim.Time
}

// churnPhase executes the dynamic environment: the configured fractions
// of leaves (graceful handover or abrupt failure) and joins (§5.2). The
// event order — graceful leavers, abrupt leavers, joiners, each in plan
// order — and the place of every w.rng draw in it are the contract the
// goldens pin, so leaves and joins run one at a time on the spine; what
// makes that affordable is that no event costs more than the handful of
// nodes it touches: membership edits are bitmap words (dht.Members), a
// joiner works out of the world's join scratch, and the one step that
// does not depend on the order, purging what was in flight to the
// departed, runs on the pool.
func (w *World) churnPhase() {
	if w.churnProc == nil {
		return
	}
	// The plan indexes the alive order with the source left out.
	src, _ := slices.BinarySearch(w.order, w.source)
	candidate := func(idx int) overlay.NodeID {
		if idx >= src {
			idx++
		}
		return w.order[idx]
	}
	plan := w.churnProc.Next(w.round, len(w.order)-1)
	for _, idx := range plan.GracefulLeavers {
		w.leave(candidate(idx), true)
	}
	for _, idx := range plan.AbruptLeavers {
		w.leave(candidate(idx), false)
	}
	if plan.TotalLeavers() > 0 {
		// Drop what is addressed to this round's departed nodes in one
		// pass per ownership shard, before any joiner can reuse a ring
		// slot: the cross-round deliveries in flight to them — their
		// connections are gone, and a recycled slot must not inherit them
		// — and, on the supplier side, their carried requests, which
		// would otherwise pass the serve-time liveness check once the slot
		// is alive again. The shards' work lists still list the nodes
		// alive at the round's start, so every carry queue is on one.
		// Transfers the dead sent while alive still arrive: packets
		// already on the wire.
		sim.ForShards(w.pool, phaseShards, func(s int) {
			ar := &w.arenas[s]
			ar.later = slices.DeleteFunc(ar.later, func(d delivery) bool { return w.nodes[d.to] == nil })
			departed := func(r protocol.Request) bool { return w.nodes[r.Requester] == nil }
			for _, id := range ar.nodes {
				if n := w.nodes[id]; n != nil {
					n.carry = slices.DeleteFunc(n.carry, departed)
				}
			}
		})
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
// failures just vanish — neighbours and the RP discover it later. Each
// neighbour drops its end of the edge; the leaver's end goes with its
// table. The leaver's Node is zeroed in place and its slot freed in its
// shard's slab, so no *Node to it may be held past the call.
func (w *World) leave(id overlay.NodeID, graceful bool) {
	n := w.nodes[id]
	if n == nil || id == w.source {
		return
	}
	if graceful {
		// Predecessor: owner of the key just before our ID.
		if pred, ok := w.dhtNet.Owner(w.space.Wrap(int(id) - 1)); ok && overlay.NodeID(pred) != id {
			if pn := w.nodes[overlay.NodeID(pred)]; pn != nil {
				n.seg.HandBackupTo(&pn.seg)
			}
		}
		w.rp.ReportFailure(id)
	}
	for _, nb := range n.Table.Neighbors() {
		peer := w.nodes[nb]
		peer.Table.RemoveNeighbor(id)
		peer.Ctrl.Forget(int(id))
	}
	w.dhtNet.Leave(dht.ID(id))
	w.nodes[id] = nil
	w.ping[id] = 0
	// The tracker's slices go to the next joiner, and the node's slab
	// slot, zeroed, to the next joiner whose ring ID falls in this shard
	// (join).
	w.freeSeg = append(w.freeSeg, n.seg)
	w.slabs[w.shardOf(id)].release(n)
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
// candidate list, adopt the first alive candidate's peer table as a base,
// wire up to M neighbours, and join the DHT. The newcomer starts playback
// once its buffer catches the shared position, "following its neighbours'
// current steps" rather than fetching history. It is built into a free
// slot of the shard its ring ID falls in (see slab), on the tracker a
// leaver left last, and its lists on the world's join scratch: churn is
// sequential, one set serves every joiner.
func (w *World) join() {
	id := w.rp.AssignID(w.rng)
	ping := 10*sim.Millisecond + sim.Time(w.rng.Intn(191))
	var recycled buffer.Track
	if k := len(w.freeSeg) - 1; k >= 0 {
		recycled, w.freeSeg[k] = w.freeSeg[k], buffer.Track{}
		w.freeSeg = w.freeSeg[:k]
	}
	n := w.buildNode(w.slabs[w.shardOf(id)].take(), recycled, id, false)
	n.JoinedRound = w.round
	// The newcomer's buffer opens at the current playback position, where
	// buildNode already opened its segment tracker.
	n.Buf.AdvanceTo(w.playbackPos(w.round))
	cands := w.rp.AppendCandidates(w.joinCands[:0], id, 6)
	w.joinCands = cands
	// The joiner has no ping on record until it is admitted, so every
	// candidate measures the floor latency and the nearest-candidate rule
	// keeps the first alive one, the closest on the ring.
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
	w.admit(n, ping)
	n.Table.Reserve(w.cfg.M + linkSlack)
	if donor == nil && len(w.order) > 0 {
		// RP list was fully stale; fall back to a uniform draw over the
		// order the round began with. That order still lists this round's
		// leavers, and the joiner may have taken one's slot, so from the
		// drawn entry the walk goes on, wrapping, to the first node alive
		// and not the joiner: a draw on a live node keeps it, and one on a
		// vacated slot no longer strands the newcomer.
		at := w.rng.Intn(len(w.order))
		for k := 0; k < len(w.order) && donor == nil; k++ {
			if c := w.order[(at+k)%len(w.order)]; c != id {
				donor = w.nodes[c]
			}
		}
	}
	pool := w.joinPool[:0]
	consider := func(c overlay.NodeID) {
		if c == id || w.nodes[c] == nil || slices.ContainsFunc(pool, func(p joinCand) bool { return p.id == c }) {
			return
		}
		pool = append(pool, joinCand{id: c, lat: w.Latency(id, c)})
	}
	if donor != nil {
		w.joinHeard = n.Table.CloneFrom(&donor.Table, w.joinHeard, func(o overlay.NodeID) sim.Time { return w.Latency(id, o) })
		donor.Table.Hear(id, w.Latency(donor.ID, id))
		consider(donor.ID)
		for _, nb := range donor.Table.Neighbors() {
			consider(nb)
		}
	}
	w.joinHeard = n.Table.OverheardNodes(w.joinHeard)
	for _, o := range w.joinHeard {
		consider(o.ID)
	}
	for _, c := range cands {
		consider(c)
	}
	// Connect up to M lowest-latency known peers; IDs are distinct, so
	// (latency, ID) is a total order.
	slices.SortFunc(pool, func(a, b joinCand) int {
		return cmp.Or(cmp.Compare(a.lat, b.lat), cmp.Compare(a.id, b.id))
	})
	for _, c := range pool {
		if len(n.Table.Neighbors()) >= w.cfg.M {
			break
		}
		w.addEdge(id, c.id)
	}
	w.joinPool = pool
}
