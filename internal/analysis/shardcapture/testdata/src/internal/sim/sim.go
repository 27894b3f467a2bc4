// Package sim is a stand-in for continustreaming/internal/sim carrying
// just enough surface for the shardcapture fixtures: the analyzer
// resolves ForShards by name and package-path suffix, so this package
// qualifies exactly like the real one.
package sim

// Pool is a worker-pool stub.
type Pool struct{}

// ForShards mirrors the real signature: shard funcs run concurrently, one
// per shard.
func ForShards(p *Pool, shards int, fn func(shard int)) {
	for s := 0; s < shards; s++ {
		fn(s)
	}
}
