package core

import (
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/sim"
)

// hearEvent is one membership-gossip notification: `to` learns that
// `about` exists at the given latency (milliseconds). Its fields are int32,
// 12 bytes a record: ring IDs fit because dht.NewSpace caps the ring at
// 2^31 slots, and ms32 guards the latency.
type hearEvent struct {
	to, about int32
	lat       int32
}

// maintenancePhase applies the paper's neighbour maintenance rules as a
// three-stage sharded pipeline on sim.ForShards, deterministic and
// bit-identical at any worker count like the rest of the round pipeline.
// The decisions — gossip picks and rewire intents — are
// protocol.GossipPicks and protocol.PlanRewire; this driver owns the
// sharding, the view assembly and the sequential intent application:
//
//  1. gossip scatter — each node, from a neighbour snapshot pinned at
//     phase entry, tells every alive neighbour about two of its other
//     neighbours (the SCAMP-style membership gossip CoolStreaming builds
//     on, riding inside the existing buffer-map exchange and excluded from
//     the 620-bit control costing). Each scatter shard files its events
//     in its hand-off list under the shard that owns the hearing peer;
//     the list is laid out first, at two slots per alive neighbour, the
//     most GossipPicks emits.
//  2. shard-owned apply — each ownership shard delivers the hear events to
//     its own nodes (in scatter-shard order, reproducing a sequential
//     scan), drops neighbours discovered dead, and computes rewire
//     intents from each node's local view (protocol.PlanRewire).
//  3. sequential rewire — intents are applied in shard order, revalidated
//     against the live edge set, because edge flips touch both endpoints.
func (w *World) maintenancePhase() {
	warm := w.virtualPos(w.round) > 0
	nOrder := len(w.order)
	w.ensureArenas()

	// Stage 1: membership-gossip scatter over contiguous index ranges.
	// Each node's picks consume its own RNG stream, so the draw sequence
	// is a function of the node alone, never of worker interleaving.
	// Nothing changes an edge or a node's liveness until stage 2, so the
	// bounds reserved in the first pass hold for the second. The alive
	// and emit callbacks are hoisted to one pair per shard instead of one
	// per node.
	sim.ForShards(w.pool, phaseShards, func(r int) {
		ar := &w.arenas[r]
		ar.gossip.clearBounds()
		lo, hi := sim.ShardRange(nOrder, phaseShards, r)
		for i := lo; i < hi; i++ {
			nbs := w.nodes[w.order[i]].Table.Neighbors()
			if len(nbs) < 2 {
				continue // GossipPicks needs a second neighbour to name
			}
			for _, nb := range nbs {
				if w.nodes[nb] != nil {
					ar.gossip.reserve(w.shardOf(nb), 2)
				}
			}
		}
	})
	layout(&w.lists.hear, w.arenas, func(ar *roundArena) *handoff[hearEvent] { return &ar.gossip })
	sim.ForShards(w.pool, phaseShards, func(r int) {
		ar := &w.arenas[r]
		alive := func(id overlay.NodeID) bool { return w.nodes[id] != nil }
		emit := func(to, about overlay.NodeID) {
			ar.gossip.put(w.shardOf(to), hearEvent{to: int32(to), about: int32(about), lat: ms32(w.Latency(to, about))})
		}
		lo, hi := sim.ShardRange(nOrder, phaseShards, r)
		for i := lo; i < hi; i++ {
			n := w.nodes[w.order[i]]
			// The neighbour snapshot is pinned at phase entry: nothing
			// mutates edges until stage 2, so the table's own list is
			// the snapshot.
			protocol.GossipPicks(&n.RNG, n.Table.Neighbors(), alive, emit)
		}
	})

	// Stage 2: shard-owned hear delivery, dead-neighbour cleanup, and
	// intent computation. Every mutation in this stage touches only state
	// owned by the executing shard (the node's own tables, its own
	// controller, its own arena). One sequential pass builds the per-shard
	// work lists so each shard walks only its own nodes.
	w.shardWorkLists()
	sim.ForShards(w.pool, phaseShards, func(s int) {
		ar := &w.arenas[s]
		for r := 0; r < phaseShards; r++ {
			// Cross-shard read of stage-1 output, sequenced by the
			// barrier between the two ForShards calls.
			for _, ev := range w.arenas[r].gossip.to(s) {
				if n := w.nodes[ev.to]; n != nil {
					n.Table.Hear(overlay.NodeID(ev.about), sim.Time(ev.lat))
				}
			}
		}
		ar.intents = ar.intents[:0]
		ar.rewire.Reset()
		for _, id := range ar.nodes {
			n := w.nodes[id]
			// Snapshot the neighbour list before the dead scan:
			// removeEdge rewrites it mid-iteration.
			ar.deadScan = append(ar.deadScan[:0], n.Table.Neighbors()...)
			for _, nb := range ar.deadScan {
				if w.nodes[nb] == nil {
					// The dead side's node is gone, so this edge
					// removal mutates only shard-owned state.
					w.removeEdge(id, nb)
					n.Table.ForgetOverheard(nb)
				}
			}
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
// ascends. Callers run ensureArenas first.
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
