package core

import (
	"fmt"

	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/sim"
)

// gossipRow is one neighbour's share of a node's membership-gossip draw:
// the two candidates the node drew for neighbour `to`, in draw order. A
// pick equal to `to` names nothing — GossipPicks skips a draw that lands
// on the neighbour itself, and a node with fewer than two neighbours
// draws none — so the row starts as {to, to} and the draws overwrite it.
// Its fields are int32: ring IDs fit because dht.NewSpace caps the ring
// at 2^31 slots.
type gossipRow struct {
	to    int32
	picks [2]int32
}

// maintenancePhase applies the paper's neighbour maintenance rules as a
// three-stage sharded pipeline on sim.ForShards, deterministic and
// bit-identical at any worker count like the rest of the round pipeline.
// The decisions — gossip picks and rewire intents — are
// protocol.GossipPicks and protocol.PlanRewire; this driver owns the
// sharding, the view assembly and the sequential intent application:
//
//  1. gossip draw — each node, from its neighbour list as it stands at
//     phase entry, picks two of its other neighbours to tell every
//     neighbour about (the SCAMP-style membership gossip CoolStreaming
//     builds on, riding inside the existing buffer-map exchange and
//     excluded from the 620-bit control costing). Each ownership shard
//     writes its nodes' picks into its own arena, one gossipRow per
//     neighbour.
//  2. shard-owned hear and plan — each node pulls the picks its
//     neighbours drew for it, in place (pulledHears), adds them to its
//     overheard list, and computes its rewire intent from its local view
//     (protocol.PlanRewire). Neighbour lists name only alive nodes
//     (churn and maintenance keep them so), so no neighbour list changes
//     before stage 3.
//  3. sequential rewire — intents are applied in shard order, revalidated
//     against the live edge set, because edge flips touch both endpoints.
func (w *World) maintenancePhase() {
	warm := w.virtualPos(w.round) > 0
	w.drawGossip()

	// Stage 2: shard-owned hear delivery and intent computation. Every
	// mutation in this stage touches only state owned by the executing
	// shard (the node's own tables, its own arena); other shards' gossip
	// rows are read after the barrier that ends stage 1.
	sim.ForShards(w.pool, phaseShards, func(s int) {
		ar := &w.arenas[s]
		ar.intents = ar.intents[:0]
		ar.rewire.Reset()
		for _, id := range ar.nodes {
			n := w.nodes[id]
			w.pulledHears(id, n.Table.Neighbors(), func(about overlay.NodeID) {
				n.Table.Hear(about, w.Latency(id, about))
			})
			ar.provider.n = n
			if intent, ok := protocol.PlanRewire(w.maintenanceView(n, warm, &ar.provider), w.cfg.Maintenance, &ar.rewire); ok {
				ar.intents = append(ar.intents, intent)
			}
		}
	})

	// Stage 3: apply intents sequentially in shard order. Revalidation at
	// apply time keeps the pass safe against intents interacting (an
	// earlier adoption may have filled this node's degree or taken the
	// candidate past its own target). The intents' Drop/Adopt slices live
	// in the shard arenas and stay valid until stage 2 resets them next
	// round.
	for s := range w.arenas {
		ar := &w.arenas[s]
		for _, intent := range ar.intents {
			if w.testRewireIntentHook != nil {
				w.testRewireIntentHook(intent)
			}
			w.applyRewire(intent, &ar.provider)
		}
	}
}

// drawGossip is maintenance stage 1: every node draws protocol.GossipPicks
// from its own RNG stream, so the draw sequence is a function of the node
// alone, never of worker interleaving, and its shard files the picks as
// one gossipRow per neighbour. The list is sized from the shard's degree
// sum before it is filled: a round that outgrows it reallocates it at
// that sum plus an eighth, the headroom the hand-off pools keep, so a
// mesh whose degrees drift up reallocates it rarely and it carries no
// more slack than that. The emit callback is hoisted to one per shard:
// GossipPicks emits in neighbour order, so a cursor walks the node's rows
// along with it.
func (w *World) drawGossip() {
	sim.ForShards(w.pool, phaseShards, func(s int) {
		ar := &w.arenas[s]
		rows := 0
		for _, id := range ar.nodes {
			rows += len(w.nodes[id].Table.Neighbors())
		}
		if cap(ar.gossip) < rows {
			ar.gossip = make([]gossipRow, 0, rows+rows/8)
		}
		ar.gossip = ar.gossip[:0]
		var row, draw int
		alive := func(id overlay.NodeID) bool { return w.nodes[id] != nil }
		emit := func(to, about overlay.NodeID) {
			for ar.gossip[row].to != int32(to) {
				row, draw = row+1, 0
			}
			ar.gossip[row].picks[draw] = int32(about)
			draw++
		}
		// gossipAt is a CSR offset table over the shard's ranks: a rank
		// with no node gets an empty span.
		rank := 0
		for _, id := range ar.nodes {
			for ; rank <= int(w.shardRank[id]); rank++ {
				ar.gossipAt[rank] = int32(len(ar.gossip))
			}
			nbs := w.nodes[id].Table.Neighbors()
			row, draw = len(ar.gossip), 0
			for _, nb := range nbs {
				ar.gossip = append(ar.gossip, gossipRow{to: int32(nb), picks: [2]int32{int32(nb), int32(nb)}})
			}
			protocol.GossipPicks(&w.nodes[id].RNG, nbs, alive, emit)
		}
		for ; rank < len(ar.gossipAt); rank++ {
			ar.gossipAt[rank] = int32(len(ar.gossip))
		}
	})
}

// pulledHears calls fn with every pick x's neighbours drew for it in
// stage 1, in a fixed order: neighbours ascending, each neighbour's draw-0
// pick before its draw-1 pick. Neighbour lists are symmetric, so each of
// x's neighbours has a row for x; a missing row is a broken mesh
// invariant and panics.
func (w *World) pulledHears(x overlay.NodeID, nbs []overlay.NodeID, fn func(about overlay.NodeID)) {
	for _, y := range nbs {
		ar := &w.arenas[w.shardOf(y)]
		k := w.shardRank[y]
		rows := ar.gossip[ar.gossipAt[k]:ar.gossipAt[k+1]]
		i := 0
		for i < len(rows) && rows[i].to != int32(x) {
			i++
		}
		if i == len(rows) {
			panic(fmt.Sprintf("core: node %d lists neighbour %d, which does not list it back", x, y))
		}
		for _, p := range rows[i].picks {
			if p != int32(x) {
				fn(overlay.NodeID(p))
			}
		}
	}
}

// maintenanceView assembles one node's rewire decision scalars from
// shard-owned world state. The candidate pools live behind the provider
// seam — most nodes are at target degree and PlanRewire's fast path
// never consults it.
func (w *World) maintenanceView(n *Node, warm bool, prov protocol.ViewProvider) protocol.MaintenanceView {
	return protocol.MaintenanceView{
		Node:            n.ID,
		Source:          w.source,
		IsSource:        n.IsSource,
		Warm:            warm,
		Round:           w.round,
		LastReplace:     n.lastReplace,
		Degree:          len(n.Table.Neighbors()),
		DegreeTarget:    w.cfg.DegreeTarget(n.IsSource),
		MissedLastRound: n.missedLastRound,
		MissStreak:      n.missStreak,
		Provider:        prov,
	}
}

// shardWorkLists partitions the alive order into the shard arenas' work
// lists in one sequential pass; w.order is sorted, so each shard's list
// ascends.
func (w *World) shardWorkLists() {
	for s := range w.arenas {
		w.arenas[s].nodes = w.arenas[s].nodes[:0]
	}
	for _, id := range w.order {
		s := w.shardOf(id)
		w.arenas[s].nodes = append(w.arenas[s].nodes, id)
	}
}

// applyRewire executes one intent against the live edge set through
// protocol.ApplyRewire, prov re-pointed at its node. Adopted candidates
// leave the overheard list, preserving the promote-on-connect invariant.
func (w *World) applyRewire(intent protocol.RewireIntent, prov *maintenanceProvider) {
	n := w.nodes[intent.Node] // stage 2 planned it for a live node
	prov.n = n
	adopt := func(cand overlay.NodeID) {
		n.Table.TakeOverheard(cand)
		w.addEdge(n.ID, cand)
	}
	protocol.ApplyRewire(intent, prov, func() int { return len(n.Table.Neighbors()) }, w.cfg.DegreeTarget(n.IsSource),
		func(victim, cand overlay.NodeID) {
			n.lastReplace = w.round
			w.removeEdge(n.ID, victim)
			adopt(cand)
		}, adopt)
}
