package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the module's one goroutine worker pool. The bulk-synchronous
// round phases fan their shards out over it (ForShards), and the
// experiment sweeps fan their independent simulations out over the sweep
// points; either way every call writes only its own index's state, so
// the result is independent of interleaving and therefore deterministic
// for a fixed seed.
type Pool struct {
	workers int
}

// NewPool returns a pool using the given number of workers; workers <= 0
// selects GOMAXPROCS. The pool itself holds no goroutines between calls, so
// it is trivially safe to share.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the configured parallel width.
func (p *Pool) Workers() int { return p.workers }

// ForEach invokes fn(i) for every i in [0, n), handing indices out to the
// pool's workers through an atomic cursor, and returns only after every
// call has finished. fn must not invoke ForEach on the same pool
// recursively with interleaved writes to shared state.
//
// Each grab hands out one index: a 64-shard ForShards phase gives any
// configured worker a shard of a few hundred nodes' work, and a straggler
// holds up at most one. Which worker runs which index never reaches a
// result: every index writes only its own state.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// shardStreamSalt keys the per-shard RNG streams ShardRNG hands out,
// keeping them disjoint from the node- and world-level streams derived
// elsewhere from the same master seed.
const shardStreamSalt = 0x5d1a7c0de

// ShardRNG returns shard's private stream under seed, for ForShards shard
// funcs that make stochastic shard-local decisions: the randomness depends
// only on the shard assignment, never on which worker ran the shard or in
// what order. The seed must be unique to the invocation (salt the master
// seed with a phase tag and round index, as core.World.phaseSeed does);
// reusing one would hand every phase the same streams.
func ShardRNG(seed uint64, shard int) *RNG {
	return DeriveRNG(seed, shardStreamSalt+uint64(shard))
}

// ShardIndex maps a 64-bit key onto one of shards buckets through a
// splitmix-style finalizer, so adjacent keys (sequentially assigned node
// IDs, say) spread evenly instead of clustering. The mapping depends only
// on (key, shards): it is stable across runs and worker counts, which makes
// it the supported way to assign simulation entities to ForShards shards.
func ShardIndex(key uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return int(key % uint64(shards))
}

// ForShards is the one fan-out behind the deterministic parallel round
// phases: it runs fn once per shard on the pool's workers and returns when
// every shard has finished. fn may write only state its shard owns — a
// chain indexed by the shard argument, such as the shard's own arena — and
// a phase that produces per-shard results leaves them there for the
// caller to fold sequentially in ascending shard order. Because the shard
// count and the fold order are independent of the pool's width — and a
// shard func that needs randomness draws it from ShardRNG — the combined
// outcome is bit-identical at any worker count.
func ForShards(p *Pool, shards int, fn func(shard int)) {
	p.ForEach(shards, fn)
}
