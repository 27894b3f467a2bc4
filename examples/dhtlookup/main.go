// DHT lookup: exercises the structured half of the hybrid overlay on its
// own — the loosely-organised ring of §4.1. Builds an 8192-slot ring with
// 2000 members, stores segment backups under the paper's hash(id·i) rule,
// then routes lookups and reports hop counts against the appendix bound
// log N / log(4/3) ≈ 2.41·log₂N and the empirical log₂(n)/2.
//
//	go run ./examples/dhtlookup
package main

import (
	"fmt"

	"continustreaming/internal/dht"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
	"continustreaming/internal/theory"
)

func main() {
	space := dht.NewSpace(8192)
	net := dht.NewNetwork(space)
	rng := sim.NewRNG(2024)
	for net.Size() < 2000 {
		net.Join(dht.ID(rng.Intn(space.N())), rng)
	}
	ids := net.IDs()
	for _, id := range ids {
		net.FillTable(net.Table(id), rng)
	}

	// Store backups for 100 segments at their k=4 hashed owners.
	type backup struct {
		node dht.ID
		seg  segment.ID
	}
	stored := map[backup]bool{}
	const k = 4
	for seg := segment.ID(0); seg < 100; seg++ {
		for _, key := range dht.BackupKeys(space, seg, k) {
			if owner, ok := net.Owner(key); ok {
				stored[backup{owner, seg}] = true
			}
		}
	}

	// Route lookups for every segment's first replica from random origins,
	// recording each walk; the longest one is printed below.
	totalHops, success, hits := 0, 0, 0
	const queries = 2000
	var longest []dht.ID
	sc := dht.RouteScratch{RecordPath: true}
	for q := 0; q < queries; q++ {
		seg := segment.ID(q % 100)
		origin := ids[rng.Intn(len(ids))]
		res := net.RouteTo(origin, dht.HashKey(space, seg, 1), &sc)
		if !res.Success {
			continue
		}
		success++
		totalHops += res.Hops
		if len(sc.Path) > len(longest) {
			longest = append(longest[:0], sc.Path...) // Path is reused by the next walk
		}
		if stored[backup{res.Final, seg}] {
			hits++
		}
	}
	maxHops := len(longest) - 1
	fmt.Printf("queries:          %d\n", queries)
	fmt.Printf("success rate:     %.3f\n", float64(success)/queries)
	fmt.Printf("backup hit rate:  %.3f (owner holds the stored segment)\n", float64(hits)/float64(success))
	fmt.Printf("avg hops:         %.2f (log2(n)/2 = %.2f)\n",
		float64(totalHops)/float64(success), theory.ExpectedRoutingHops(net.Size()))
	fmt.Printf("max hops:         %d (appendix bound %.1f)\n", maxHops, theory.RoutingHopBound(space.N()))
	fmt.Printf("longest walk:     %v\n", longest)
}
