package sim

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachCoversEveryIndexOnce walks the hand-out rule's edges — no
// work, fewer indices than workers, the 64-shard phase and its
// neighbours, a per-node loop — at every pool width in use: each index is
// visited exactly once whatever unit the rule picks.
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

// TestMapReduceUsesEveryWorker pins the hand-out unit of a 64-shard phase
// to what lets the whole pool in: the map func's first eight callers wait
// for one another, which only eight goroutines each holding a shard can
// satisfy. Fixed chunks of 16 made the phase four work units, so four of
// an eight-wide pool's goroutines found the cursor spent and the other
// four waited out the timeout.
func TestMapReduceUsesEveryWorker(t *testing.T) {
	const shards, width = 64, 8
	var arrived, lonely atomic.Int32
	full := make(chan struct{})
	MapReduce(NewPool(width), shards, func(int) bool {
		if arrived.Add(1) == width {
			close(full)
		}
		select {
		case <-full:
			return true
		//continulint:wallclock the bound on a rendezvous that a narrower hand-out never completes; no simulated time passes here
		case <-time.After(5 * time.Second):
			lonely.Add(1)
			return false
		}
	}, func(int, bool) {})
	if n := lonely.Load(); n != 0 {
		t.Fatalf("%d map calls never saw %d shards in flight at once: the pool's %d workers did not all receive work", n, width, width)
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

func TestShardRangeCoversInOrder(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{0, 4}, {1, 4}, {7, 3}, {64, 64}, {100, 64}, {10000, 64}, {5, 8},
	} {
		prev := 0
		for s := 0; s < tc.shards; s++ {
			lo, hi := ShardRange(tc.n, tc.shards, s)
			if lo != prev {
				t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", tc.n, tc.shards, s, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d shards=%d: shard %d has hi %d < lo %d", tc.n, tc.shards, s, hi, lo)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d shards=%d: ranges cover [0,%d), want [0,%d)", tc.n, tc.shards, prev, tc.n)
		}
	}
}

// TestMapReduceDeterministicAcrossWorkerCounts pins the primitive's core
// contract: per-shard RNG streams (ShardRNG) and the shard-order reduce
// make the combined outcome independent of the pool width executing it.
func TestMapReduceDeterministicAcrossWorkerCounts(t *testing.T) {
	const shards = 32
	run := func(workers int) ([]uint64, []int) {
		p := NewPool(workers)
		draws := make([]uint64, 0, shards)
		order := make([]int, 0, shards)
		MapReduce(p, shards, func(s int) uint64 {
			rng := ShardRNG(99, s)
			// Consume a shard-dependent amount of randomness so stream
			// independence, not just seeding, is exercised.
			var v uint64
			for i := 0; i <= s%5; i++ {
				v = rng.Uint64()
			}
			return v
		}, func(s int, v uint64) {
			draws = append(draws, v)
			order = append(order, s)
		})
		return draws, order
	}
	baseDraws, baseOrder := run(1)
	for s, want := range baseOrder {
		if s != want {
			t.Fatalf("reduce visited shard %d at position %d; must fold in ascending shard order", want, s)
		}
	}
	for _, workers := range []int{3, 8} {
		draws, order := run(workers)
		if !reflect.DeepEqual(baseDraws, draws) || !reflect.DeepEqual(baseOrder, order) {
			t.Fatalf("workers=%d produced different map/reduce outcome", workers)
		}
	}
}

// TestMapReduceShardStreamsIndependent checks that two shards never share
// an RNG stream, that a different seed moves every stream, and that the
// derivation is the (seed, salt+shard) one the committed goldens were
// recorded under.
func TestMapReduceShardStreamsIndependent(t *testing.T) {
	collect := func(seed uint64) []uint64 {
		p := NewPool(2)
		out := make([]uint64, 0, 16)
		MapReduce(p, 16, func(s int) uint64 {
			return ShardRNG(seed, s).Uint64()
		}, func(s int, v uint64) { out = append(out, v) })
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

func TestMapReduceZeroShards(t *testing.T) {
	p := NewPool(4)
	called := false
	// The reduce func runs sequentially, so it may write the captured
	// flag; the map func signals through its return value instead.
	MapReduce(p, 0, func(int) int { return 1 }, func(int, int) { called = true })
	if called {
		t.Fatal("MapReduce with zero shards must be a no-op")
	}
}
