// Package shard exercises the shard-ownership contract against the sim
// stand-in. shardcapture has no package filter: a leaky map func is a
// bug anywhere.
package shard

import "internal/sim"

// Out aggregates per-shard results through a captured field chain.
type Out struct {
	Used [4]int
}

// Bad writes captured state from inside the concurrent map func.
func Bad(p *sim.Pool, vals []int) int {
	total := 0
	var o Out
	sim.MapReduce(p, 4, func(s int) int {
		total += vals[s] // want `map func writes captured "total"`
		o.Used[0] = 1    // want `map func writes captured "o"`
		return vals[s]
	}, func(s, v int) {
		total += v // the reduce func runs sequentially: writes are legal
	})
	return total
}

// Good keeps every write shard-owned or local.
func Good(p *sim.Pool, vals []int) int {
	out := make([]int, 4)
	var o Out
	total := 0
	sim.MapReduce(p, 4, func(s int) int {
		local := vals[s] * 2 // := defines shard-locals
		out[s] = local       // indexed by the shard argument
		o.Used[s]++          // shard-indexed through a field chain
		return local
	}, func(s, v int) {
		total += v
	})
	return total
}

// Suppressed documents a deliberate exception with a reason.
func Suppressed(p *sim.Pool) {
	done := false
	sim.MapReduce(p, 1, func(s int) int {
		//continulint:shardcapture fixture: single-shard call cannot race
		done = true
		return 0
	}, func(int, int) {})
	_ = done
}

// MissingReason omits the justification, which is itself reported.
func MissingReason(p *sim.Pool) {
	count := 0
	sim.MapReduce(p, 1, func(s int) int {
		//continulint:shardcapture
		count++ // want `needs a reason`
		return 0
	}, func(int, int) {})
	_ = count
}
