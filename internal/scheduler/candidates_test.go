package scheduler

import (
	"testing"

	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// randomFillInput draws live neighbour words with differing tails (the
// livenet's misaligned maps) and a union no wider than their OR, as both
// runtimes build it.
func randomFillInput(rng *sim.RNG, neighbours, words int) ([]NeighborWords, []uint64) {
	live := make([]NeighborWords, neighbours)
	union := make([]uint64, words)
	for i := range live {
		bits := make([]uint64, words)
		for wi := range bits {
			bits[wi] = rng.Uint64() & rng.Uint64() // ~quarter full
			union[wi] |= bits[wi]
		}
		live[i] = NeighborWords{Node: 100 + i, Rate: 1 + float64(rng.Intn(20)), Tail: 64*words - rng.Intn(30), Bits: bits}
	}
	for wi := range union {
		union[wi] &= rng.Uint64() | rng.Uint64() // own holdings and pending asks masked out
	}
	return live, union
}

// TestFillCandidatesWordMatchesScalar pins the two fill variants against
// each other: the scalar fill is the >63-neighbour fallback and the word
// fill's differential oracle, so they must agree entry for entry — and
// against the definition, bit by bit.
func TestFillCandidatesWordMatchesScalar(t *testing.T) {
	rng := sim.DeriveRNG(1, 0xf111)
	for trial := 0; trial < 300; trial++ {
		neighbours := 1 + rng.Intn(63)
		words := 1 + rng.Intn(10)
		live, union := randomFillInput(rng, neighbours, words)
		lo := segment.ID(rng.Intn(5000))
		prefix := []Supplier{{Node: -1}}

		arena, word := fillCandidatesWord(prefix, nil, live, union, lo)
		_, scalar := fillCandidatesScalar(nil, nil, live, union, lo)

		if arena[0].Node != -1 {
			t.Fatalf("trial %d: the fill overwrote the arena prefix", trial)
		}
		if len(word) != len(scalar) {
			t.Fatalf("trial %d: word fill %d candidates, scalar fill %d", trial, len(word), len(scalar))
		}
		next := 0
		for i := 0; i < 64*words; i++ {
			if union[i>>6]&(1<<(uint(i)&63)) == 0 {
				continue
			}
			c := scalar[next]
			if c.ID != lo+segment.ID(i) || word[next].ID != c.ID {
				t.Fatalf("trial %d cand %d: IDs %d (word) %d (scalar), want %d", trial, next, word[next].ID, c.ID, lo+segment.ID(i))
			}
			var want []Supplier
			for _, ns := range live {
				if ns.Bits[i>>6]&(1<<(uint(i)&63)) != 0 {
					want = append(want, Supplier{Node: ns.Node, Rate: ns.Rate, PositionFromTail: ns.Tail - i})
				}
			}
			if len(c.Suppliers) != len(want) || len(word[next].Suppliers) != len(want) {
				t.Fatalf("trial %d seg %d: %d (word) / %d (scalar) suppliers, want %d", trial, c.ID, len(word[next].Suppliers), len(c.Suppliers), len(want))
			}
			for j := range want {
				if c.Suppliers[j] != want[j] || word[next].Suppliers[j] != want[j] {
					t.Fatalf("trial %d seg %d supplier %d: word %+v scalar %+v want %+v", trial, c.ID, j, word[next].Suppliers[j], c.Suppliers[j], want[j])
				}
			}
			next++
		}
		if next != len(scalar) {
			t.Fatalf("trial %d: %d candidates for %d union bits", trial, len(scalar), next)
		}
	}
}

// TestFillCandidatesWideNeighbourhood checks the dispatcher hands
// neighbourhoods the six counter planes cannot count to the scalar fill.
func TestFillCandidatesWideNeighbourhood(t *testing.T) {
	rng := sim.DeriveRNG(1, 0xf112)
	live, union := randomFillInput(rng, 70, 2)
	_, got := fillCandidates(nil, nil, live, union, 40)
	_, want := fillCandidatesScalar(nil, nil, live, union, 40)
	if len(got) != len(want) {
		t.Fatalf("%d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || len(got[i].Suppliers) != len(want[i].Suppliers) {
			t.Fatalf("cand %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
