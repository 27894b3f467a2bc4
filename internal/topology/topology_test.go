package topology

import (
	"strings"
	"testing"
	"testing/quick"

	"continustreaming/internal/sim"
)

func TestGenerateBasics(t *testing.T) {
	g := Generate(GenerateConfig{N: 500, AvgDegree: 3.0, Seed: 1})
	if g.N() != 500 {
		t.Fatalf("N = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := g.AvgDegree()
	if avg < 2.0 || avg > 3.5 {
		t.Fatalf("avg degree = %v, want near 3.0", avg)
	}
	for i, n := range g.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
		if n.Ping < 10*sim.Millisecond || n.Ping > 200*sim.Millisecond {
			t.Fatalf("ping %v out of default range", n.Ping)
		}
		if !strings.Contains(n.IP, ".") {
			t.Fatalf("bad IP %q", n.IP)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenerateConfig{N: 300, AvgDegree: 2.0, Seed: 7})
	b := Generate(GenerateConfig{N: 300, AvgDegree: 2.0, Seed: 7})
	if a.AvgDegree() != b.AvgDegree() {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs", i)
		}
		if len(a.Adj[i]) != len(b.Adj[i]) {
			t.Fatalf("adjacency %d differs", i)
		}
		for j := range a.Adj[i] {
			if a.Adj[i][j] != b.Adj[i][j] {
				t.Fatalf("adjacency %d differs", i)
			}
		}
	}
	c := Generate(GenerateConfig{N: 300, AvgDegree: 2.0, Seed: 8})
	if c.AvgDegree() == a.AvgDegree() && sameAdj(a, c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func sameAdj(a, b *Graph) bool {
	for i := range a.Adj {
		if len(a.Adj[i]) != len(b.Adj[i]) {
			return false
		}
		for j := range a.Adj[i] {
			if a.Adj[i][j] != b.Adj[i][j] {
				return false
			}
		}
	}
	return true
}

func TestGenerateHeavyTail(t *testing.T) {
	g := Generate(GenerateConfig{N: 2000, AvgDegree: 3.0, Seed: 3})
	maxDeg, leaves := 0, 0
	for _, nb := range g.Adj {
		if len(nb) > maxDeg {
			maxDeg = len(nb)
		}
		if len(nb) <= 1 {
			leaves++
		}
	}
	// Gnutella-like: hubs far above the mean, plenty of leaves.
	if maxDeg < 10 {
		t.Fatalf("max degree %d too small for a heavy-tailed graph", maxDeg)
	}
	if leaves < 100 {
		t.Fatalf("only %d leaf/isolated nodes; expected many", leaves)
	}
}

func TestAugmentReachesMinDegree(t *testing.T) {
	g := Generate(GenerateConfig{N: 400, AvgDegree: 1.0, Seed: 5})
	rng := sim.DeriveRNG(5, 99)
	Augment(g, 5, rng)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, nb := range g.Adj {
		if len(nb) < 5 {
			t.Fatalf("node %d degree %d < 5 after Augment", i, len(nb))
		}
	}
}

func TestAugmentTinyGraph(t *testing.T) {
	g := Generate(GenerateConfig{N: 3, AvgDegree: 0, Seed: 1})
	Augment(g, 5, sim.DeriveRNG(1, 1))
	// Only 2 possible neighbours exist.
	for i, nb := range g.Adj {
		if len(nb) != 2 {
			t.Fatalf("node %d degree %d, want 2", i, len(nb))
		}
	}
	Augment(g, 0, sim.DeriveRNG(1, 2)) // no-op
	g1 := Generate(GenerateConfig{N: 1, AvgDegree: 0, Seed: 1})
	Augment(g1, 5, sim.DeriveRNG(1, 3)) // no peers available, must not loop
	if len(g1.Adj[0]) != 0 {
		t.Fatal("single-node graph gained edges")
	}
}

func TestLatencyModel(t *testing.T) {
	g := &Graph{
		Nodes: []Node{
			{ID: 0, IP: "1.2.3.4", Ping: 50},
			{ID: 1, IP: "1.2.3.5", Ping: 120},
			{ID: 2, IP: "1.2.3.6", Ping: 52},
		},
		Adj: [][]int{{}, {}, {}},
	}
	if got := g.Latency(0, 1); got != 70 {
		t.Fatalf("Latency(0,1) = %v", got)
	}
	if got := g.Latency(1, 0); got != 70 {
		t.Fatalf("Latency not symmetric: %v", got)
	}
	// Near-identical pings floor at MinLatency.
	if got := g.Latency(0, 2); got != MinLatency {
		t.Fatalf("Latency(0,2) = %v, want floor %v", got, MinLatency)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Generate(GenerateConfig{N: 10, AvgDegree: 2, Seed: 2})
	g.Adj[0] = append(g.Adj[0], 0) // self-loop at the end may also break sortedness
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted self-loop")
	}
	g = Generate(GenerateConfig{N: 10, AvgDegree: 2, Seed: 2})
	g.Adj[3] = []int{4}
	g.Adj[4] = nil // asymmetric
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted asymmetric edge")
	}
}

// Property: latency is symmetric, positive, and satisfies the ping-difference
// definition for arbitrary ping assignments.
func TestLatencyPropertiesQuick(t *testing.T) {
	f := func(pings []uint8) bool {
		if len(pings) < 2 {
			return true
		}
		g := &Graph{Nodes: make([]Node, len(pings)), Adj: make([][]int, len(pings))}
		for i, p := range pings {
			g.Nodes[i] = Node{ID: i, Ping: sim.Time(p)}
		}
		for i := 0; i < len(pings)-1; i++ {
			l := g.Latency(i, i+1)
			if l != g.Latency(i+1, i) || l < MinLatency {
				return false
			}
			d := g.Nodes[i].Ping - g.Nodes[i+1].Ping
			if d < 0 {
				d = -d
			}
			if d >= MinLatency && l != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
