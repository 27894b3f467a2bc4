// Package shard exercises the shard-ownership contract against the sim
// stand-in. shardcapture has no package filter: a leaky shard func is a
// bug anywhere.
package shard

import "internal/sim"

// Out aggregates per-shard results through a captured field chain.
type Out struct {
	Used [4]int
}

// Bad writes captured state from inside the concurrent shard func.
func Bad(p *sim.Pool, vals []int) int {
	total := 0
	var o Out
	sim.ForShards(p, 4, func(s int) {
		total += vals[s] // want `shard func writes captured "total"`
		o.Used[0] = 1    // want `shard func writes captured "o"`
	})
	return total
}

// Good keeps every write shard-owned or local, and folds the per-shard
// slots sequentially after the call.
func Good(p *sim.Pool, vals []int) int {
	out := make([]int, 4)
	var o Out
	sim.ForShards(p, 4, func(s int) {
		local := vals[s] * 2 // := defines shard-locals
		out[s] = local       // indexed by the shard argument
		o.Used[s]++          // shard-indexed through a field chain
	})
	total := 0
	for _, v := range out {
		total += v // after the call: sequential again
	}
	return total
}

// Suppressed documents a deliberate exception with a reason.
func Suppressed(p *sim.Pool) {
	done := false
	sim.ForShards(p, 1, func(s int) {
		//continulint:shardcapture fixture: single-shard call cannot race
		done = true
	})
	_ = done
}

// MissingReason omits the justification, which is itself reported.
func MissingReason(p *sim.Pool) {
	count := 0
	sim.ForShards(p, 1, func(s int) {
		//continulint:shardcapture
		count++ // want `needs a reason`
	})
	_ = count
}
