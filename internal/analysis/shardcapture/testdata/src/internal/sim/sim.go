// Package sim is a stand-in for continustreaming/internal/sim carrying
// just enough surface for the shardcapture fixtures: the analyzer
// resolves MapReduce by name and package-path suffix, so this package
// qualifies exactly like the real one.
package sim

// Pool is a worker-pool stub.
type Pool struct{}

// MapReduce mirrors the real signature: map funcs run concurrently, one
// per shard; reduce runs sequentially in shard order.
func MapReduce[T any](p *Pool, shards int, mapFn func(shard int) T, reduce func(shard int, v T)) {
	for s := 0; s < shards; s++ {
		reduce(s, mapFn(s))
	}
}
