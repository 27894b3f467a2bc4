package core

import "continustreaming/internal/sim"

// dhtRepairPhase actively repairs the structured overlay after churn: every
// round each node sweeps its DHT peer levels, evicting dead entries and
// refilling vacant arcs from alive members. Without this, 5%-per-round
// churn rots the tables faster than overheard traffic renews them, greedy
// routing fails, and the pre-fetch path — the paper's continuity backstop
// — silently dies; Figure 3's ≥95% query success is only reachable under
// churn with the refresh running. It runs after churn, the only phase that
// removes members, so no level names a departed node when the next round's
// walks start (checkNodeState holds every round to it).
//
// Tables are sharded by owner ID and swept with per-shard RNG streams in
// ascending ID order, so the phase is bit-identical at any worker count.
func (w *World) dhtRepairPhase() {
	pos := w.playbackPos(w.round)
	edge := w.fetchEdge(w.round)
	seed := w.phaseSeed(phaseRepair)
	sim.ForShards(w.pool, phaseShards, func(s int) {
		rng := sim.ShardRNG(seed, s)
		for _, id := range w.arenas[s].nodes {
			n := w.nodes[id]
			levels := n.Table.DHT()
			before, hadSucc := levels.Successor()
			w.dhtNet.RepairTable(levels, rng)
			after, hasSucc := levels.Successor()
			// Replica repair: backup responsibility is normally
			// evaluated when a segment arrives, so when churn moves an
			// arc boundary the new owner never backs up segments it
			// already holds and the replica set decays round by round.
			// Re-evaluating the live window when the believed
			// successor moves stops the leak; an unchanged successor
			// means an unchanged arc, so the scan is skipped.
			if hasSucc && (!hadSucc || before != after) {
				for seg := pos; seg < edge; seg++ {
					if seg >= 0 && n.Buf.Has(seg) {
						n.maybeBackup(w.space, seg, w.cfg.Replicas)
					}
				}
			}
		}
	})
}
