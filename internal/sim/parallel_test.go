package sim

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachCoversEveryIndexOnce walks the hand-out's edges — no work,
// fewer indices than workers, the 64-shard phase and its neighbours, a
// long loop — at every pool width in use: each index is visited exactly
// once.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 63, 64, 65, 1000} {
		for _, workers := range []int{1, 2, 3, 4, 8, 16} {
			visits := make([]atomic.Int32, n)
			NewPool(workers).ForEach(n, func(i int) { visits[i].Add(1) })
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestForShardsUsesEveryWorker pins the hand-out unit of a 64-shard phase
// to what lets the whole pool in: the shard func's first eight callers
// wait for one another, which only eight goroutines each holding a shard
// can satisfy. Fixed chunks of 16 made the phase four work units, so four
// of an eight-wide pool's goroutines found the cursor spent and the other
// four waited out the timeout.
func TestForShardsUsesEveryWorker(t *testing.T) {
	const shards, width = 64, 8
	var arrived, lonely atomic.Int32
	full := make(chan struct{})
	ForShards(NewPool(width), shards, func(int) {
		if arrived.Add(1) == width {
			close(full)
		}
		select {
		case <-full:
		//continulint:wallclock the bound on a rendezvous that a narrower hand-out never completes; no simulated time passes here
		case <-time.After(5 * time.Second):
			lonely.Add(1)
		}
	})
	if n := lonely.Load(); n != 0 {
		t.Fatalf("%d shard calls never saw %d shards in flight at once: the pool's %d workers did not all receive work", n, width, width)
	}
}

func TestShardIndexStableAndInRange(t *testing.T) {
	const shards = 64
	counts := make([]int, shards)
	for key := uint64(0); key < 4096; key++ {
		s := ShardIndex(key, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardIndex(%d, %d) = %d out of range", key, shards, s)
		}
		if s != ShardIndex(key, shards) {
			t.Fatalf("ShardIndex(%d, %d) unstable", key, shards)
		}
		counts[s]++
	}
	// Sequential keys must spread rather than cluster: with 4096 keys over
	// 64 shards (64 expected each) no shard should be wildly off.
	for s, c := range counts {
		if c < 32 || c > 128 {
			t.Fatalf("shard %d holds %d of 4096 sequential keys; mixing is broken", s, c)
		}
	}
	if ShardIndex(12345, 1) != 0 || ShardIndex(12345, 0) != 0 {
		t.Fatal("degenerate shard counts must map to shard 0")
	}
}

// TestForShardsDeterministicAcrossWorkerCounts pins the primitive's core
// contract: per-shard RNG streams (ShardRNG) written to per-shard slots
// make the outcome independent of the pool width executing it, and each
// slot holds its own shard's stream.
func TestForShardsDeterministicAcrossWorkerCounts(t *testing.T) {
	const shards = 32
	// Consume a shard-dependent amount of randomness so stream
	// independence, not just seeding, is exercised.
	draw := func(s int) uint64 {
		rng := ShardRNG(99, s)
		var v uint64
		for i := 0; i <= s%5; i++ {
			v = rng.Uint64()
		}
		return v
	}
	run := func(workers int) []uint64 {
		slots := make([]uint64, shards)
		ForShards(NewPool(workers), shards, func(s int) { slots[s] = draw(s) })
		return slots
	}
	base := run(1)
	for s, v := range base {
		if v != draw(s) {
			t.Fatalf("shard %d's slot holds %#x, its own stream's draw is %#x", s, v, draw(s))
		}
	}
	for _, workers := range []int{3, 8} {
		if got := run(workers); !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d produced different per-shard results", workers)
		}
	}
}

// TestForShardsShardStreamsIndependent checks that two shards never share
// an RNG stream, that a different seed moves every stream, and that the
// derivation is the (seed, salt+shard) one the committed goldens were
// recorded under.
func TestForShardsShardStreamsIndependent(t *testing.T) {
	collect := func(seed uint64) []uint64 {
		out := make([]uint64, 16)
		ForShards(NewPool(2), 16, func(s int) {
			out[s] = ShardRNG(seed, s).Uint64()
		})
		return out
	}
	a := collect(7)
	seen := make(map[uint64]bool, len(a))
	for _, v := range a {
		if seen[v] {
			t.Fatalf("two shards drew the same first value %d; streams are not independent", v)
		}
		seen[v] = true
	}
	b := collect(8)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("changing the seed left every shard stream unchanged")
	}
	if got, want := a[3], DeriveRNG(7, 0x5d1a7c0de+3).Uint64(); got != want {
		t.Fatalf("ShardRNG(7, 3) opens at %#x, DeriveRNG(7, salt+3) at %#x", got, want)
	}
}

func TestForShardsZeroShards(t *testing.T) {
	var calls atomic.Int32
	ForShards(NewPool(4), 0, func(int) { calls.Add(1) })
	if calls.Load() != 0 {
		t.Fatal("ForShards with zero shards must be a no-op")
	}
}
