package dht

import "continustreaming/internal/sim"

// RepairStats summarises one table-repair sweep.
type RepairStats struct {
	// Evicted counts dead peers removed from levels.
	Evicted int
	// Refilled counts vacant levels that received a fresh alive peer.
	Refilled int
}

// Total returns the number of table mutations the sweep performed.
func (s RepairStats) Total() int { return s.Evicted + s.Refilled }

// Add accumulates another sweep's counters.
func (s *RepairStats) Add(o RepairStats) {
	s.Evicted += o.Evicted
	s.Refilled += o.Refilled
}

// RepairTable is the periodic successor/finger refresh of a node's peer
// levels: every level whose entry has died is evicted, and every vacant
// level whose arc holds at least one alive node is refilled with a
// uniformly random member of that arc. This is the active counterpart to
// the passive overheard-traffic renewal — under sustained churn the
// overheard stream alone cannot keep log N levels alive, and greedy
// routing (and with it the pre-fetch continuity backstop) degrades until
// someone repairs the tables. RouteTo steps over a dead entry without
// evicting it; this sweep is what evicts one.
//
// The sweep touches only t and reads the shared membership, so
// disjoint tables may be repaired concurrently as long as membership does
// not change underneath them. Randomness comes solely from rng, keeping
// the sweep deterministic for a fixed stream.
func (n *Network) RepairTable(t *Table, rng *sim.RNG) RepairStats {
	var stats RepairStats
	for level := 1; level <= n.space.Levels(); level++ {
		p := t.Peer(level)
		if p != Vacant && !n.Alive(p) {
			t.Evict(p)
			p = Vacant
			stats.Evicted++
		}
		if p != Vacant {
			continue
		}
		lo, hi := n.space.LevelArc(t.Self(), level)
		if cand, ok := n.randomInArc(lo, hi, rng); ok && cand != t.Self() {
			t.Consider(cand)
			stats.Refilled++
		}
	}
	return stats
}

// Stale reports how many of t's levels need repair: entries pointing at
// dead nodes plus vacant levels whose arc currently holds an alive node.
// It costs the same order of work as RepairTable itself, so the repair
// phase sweeps unconditionally; Stale exists for tests and diagnostics
// that assert on table health without mutating it.
func (n *Network) Stale(t *Table) int {
	stale := 0
	for level := 1; level <= n.space.Levels(); level++ {
		p := t.Peer(level)
		if p != Vacant {
			if !n.Alive(p) {
				stale++
			}
			continue
		}
		lo, hi := n.space.LevelArc(t.Self(), level)
		if n.arcPopulated(lo, hi, t.Self()) {
			stale++
		}
	}
	return stale
}

// RepairAll sweeps every member's table in ascending ID order with the
// given RNG stream. It exists for the standalone DHT experiments and
// tests; the streaming simulation repairs tables shard-by-shard inside
// its round pipeline instead.
func (n *Network) RepairAll(rng *sim.RNG) RepairStats {
	var stats RepairStats
	for _, id := range n.IDs() {
		stats.Add(n.RepairTable(n.tables[id], rng))
	}
	return stats
}

// arcPopulated reports whether the (possibly wrapped) arc [lo, hi) holds
// any alive node other than self. It mirrors randomInArc's range split.
func (n *Network) arcPopulated(lo, hi ID, self ID) bool {
	count := func(a, b ID) int {
		c := n.rank(b) - n.rank(a)
		if self >= a && self < b {
			c--
		}
		return c
	}
	if lo < hi {
		return count(lo, hi) > 0
	}
	return count(lo, ID(n.space.N()))+count(0, hi) > 0
}
