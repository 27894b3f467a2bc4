package scheduler

import (
	"math"
	"testing"
	"testing/quick"

	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

func baseInput() PriorityInput {
	return PriorityInput{Play: 100, PlaybackRate: 10, BufferSize: 600}
}

func TestUrgencyIncreasesTowardDeadline(t *testing.T) {
	in := baseInput()
	near := Candidate{ID: 130, Suppliers: []Supplier{{Node: 1, Rate: 10}}}
	far := Candidate{ID: 180, Suppliers: []Supplier{{Node: 1, Rate: 10}}}
	if Urgency(in, near) <= Urgency(in, far) {
		t.Fatal("urgency should grow as the deadline approaches")
	}
	// Equation 1 by hand: id=130, play=100, p=10 -> 3.0s; minus 1/10 s
	// transfer -> slack 2.9s -> urgency 1/2.9.
	if got := Urgency(in, near); math.Abs(got-1/2.9) > 1e-9 {
		t.Fatalf("urgency = %v, want 1/2.9", got)
	}
	// Inside one second of slack the probability proxy saturates at 1.
	due := Candidate{ID: 105, Suppliers: []Supplier{{Node: 1, Rate: 10}}}
	if got := Urgency(in, due); got != MaxUrgency {
		t.Fatalf("urgency = %v, want saturation at %v", got, MaxUrgency)
	}
}

func TestUrgencyZeroWithoutPlayback(t *testing.T) {
	in := baseInput()
	in.NoPlayback = true
	c := Candidate{ID: 101, Suppliers: []Supplier{{Node: 1, Rate: 10}}}
	if got := Urgency(in, c); got != 0 {
		t.Fatalf("urgency before playback = %v, want 0", got)
	}
}

func TestUrgencyUsesBestSupplierRate(t *testing.T) {
	in := baseInput()
	c := Candidate{ID: 125, Suppliers: []Supplier{{Node: 1, Rate: 2}, {Node: 2, Rate: 20}}}
	// R_i = max = 20: slack = 2.5 - 0.05 = 2.45.
	if got := Urgency(in, c); math.Abs(got-1/2.45) > 1e-9 {
		t.Fatalf("urgency = %v", got)
	}
	// The slower supplier alone would shrink the slack: 2.5 - 0.5 = 2.0.
	slow := Candidate{ID: 125, Suppliers: []Supplier{{Node: 1, Rate: 2}}}
	if got := Urgency(in, slow); math.Abs(got-1/2.0) > 1e-9 {
		t.Fatalf("slow-supplier urgency = %v", got)
	}
}

func TestUrgencySaturatesPastDeadline(t *testing.T) {
	in := baseInput()
	// Already due (id <= play): slack <= 0 -> MaxUrgency.
	c := Candidate{ID: 100, Suppliers: []Supplier{{Node: 1, Rate: 10}}}
	if got := Urgency(in, c); got != MaxUrgency {
		t.Fatalf("urgency = %v, want MaxUrgency", got)
	}
	// No usable rate estimate: also maximal.
	c = Candidate{ID: 300, Suppliers: []Supplier{{Node: 1, Rate: 0}}}
	if got := Urgency(in, c); got != MaxUrgency {
		t.Fatalf("urgency with zero rate = %v", got)
	}
}

func TestRarityProductSemantics(t *testing.T) {
	in := baseInput()
	// One supplier about to evict: p/B = 600/600 = 1.
	hot := Candidate{ID: 110, Suppliers: []Supplier{{Node: 1, Rate: 10, PositionFromTail: 600}}}
	if got := Rarity(in, hot); got != 1.0 {
		t.Fatalf("rarity = %v, want 1", got)
	}
	// Two fresh copies: (60/600)^2 = 0.01 — safer than one fresh copy.
	two := Candidate{ID: 110, Suppliers: []Supplier{
		{Node: 1, Rate: 10, PositionFromTail: 60},
		{Node: 2, Rate: 10, PositionFromTail: 60},
	}}
	one := Candidate{ID: 110, Suppliers: []Supplier{{Node: 1, Rate: 10, PositionFromTail: 60}}}
	if Rarity(in, two) >= Rarity(in, one) {
		t.Fatal("more suppliers must reduce rarity")
	}
	if got := Rarity(in, two); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("rarity = %v, want 0.01", got)
	}
	if Rarity(in, Candidate{ID: 1}) != 0 {
		t.Fatal("no suppliers should have zero rarity")
	}
}

func TestRarityClampsPositions(t *testing.T) {
	in := baseInput()
	c := Candidate{ID: 110, Suppliers: []Supplier{{Node: 1, PositionFromTail: 10_000}}}
	if got := Rarity(in, c); got != 1 {
		t.Fatalf("over-position rarity = %v", got)
	}
	c = Candidate{ID: 110, Suppliers: []Supplier{{Node: 1, PositionFromTail: -5}}}
	if got := Rarity(in, c); got != 0 {
		t.Fatalf("negative-position rarity = %v", got)
	}
}

func TestPriorityIsMax(t *testing.T) {
	in := baseInput()
	c := Candidate{ID: 105, Suppliers: []Supplier{{Node: 1, Rate: 10, PositionFromTail: 600}}}
	u, r := Urgency(in, c), Rarity(in, c)
	if got := Priority(in, c); got != math.Max(u, r) {
		t.Fatalf("priority = %v, want max(%v,%v)", got, u, r)
	}
}

func schedInput(budget int, cands ...Candidate) Input {
	return Input{
		PriorityInput: baseInput(),
		Tau:           sim.Second,
		InboundBudget: budget,
		Candidates:    cands,
	}
}

func TestGreedyRespectsBudget(t *testing.T) {
	var cands []Candidate
	for i := 0; i < 20; i++ {
		cands = append(cands, Candidate{
			ID:        segment.ID(110 + i),
			Suppliers: []Supplier{{Node: i % 3, Rate: 50, PositionFromTail: 100}},
		})
	}
	reqs := (Greedy{}).Schedule(schedInput(5, cands...))
	if len(reqs) != 5 {
		t.Fatalf("scheduled %d, budget 5", len(reqs))
	}
	if got := (Greedy{}).Schedule(schedInput(0, cands...)); got != nil {
		t.Fatal("zero budget scheduled work")
	}
}

func TestGreedyPrefersUrgentSegments(t *testing.T) {
	// Budget of 1: the near-deadline segment must win over a far one even
	// though the far one was listed first.
	far := Candidate{ID: 500, Suppliers: []Supplier{{Node: 1, Rate: 10, PositionFromTail: 10}}}
	near := Candidate{ID: 102, Suppliers: []Supplier{{Node: 2, Rate: 10, PositionFromTail: 10}}}
	reqs := (Greedy{}).Schedule(schedInput(1, far, near))
	if len(reqs) != 1 || reqs[0].ID != 102 {
		t.Fatalf("reqs = %+v", reqs)
	}
}

func TestGreedyQueueingSpillsToSecondSupplier(t *testing.T) {
	// Two segments, both available at a fast and a slow supplier. The fast
	// supplier can only fit one transfer before the slow one becomes the
	// earlier option for the second segment.
	fast := Supplier{Node: 1, Rate: 1.6, PositionFromTail: 10}  // 625ms per segment
	slow := Supplier{Node: 2, Rate: 1.25, PositionFromTail: 10} // 800ms per segment
	a := Candidate{ID: 105, Suppliers: []Supplier{fast, slow}}
	b := Candidate{ID: 106, Suppliers: []Supplier{fast, slow}}
	reqs := (Greedy{}).Schedule(schedInput(4, a, b))
	if len(reqs) != 2 {
		t.Fatalf("scheduled %d", len(reqs))
	}
	if reqs[0].Supplier != 1 || reqs[1].Supplier != 2 {
		t.Fatalf("suppliers = %d,%d want 1,2", reqs[0].Supplier, reqs[1].Supplier)
	}
	// Second via fast would finish at 1250ms > tau; via slow at 800ms.
	if reqs[1].ExpectedAt != 800 {
		t.Fatalf("expectedAt = %v", reqs[1].ExpectedAt)
	}
}

func TestGreedySkipsUnservableSegments(t *testing.T) {
	// A supplier too slow to deliver within the period yields no request.
	c := Candidate{ID: 105, Suppliers: []Supplier{{Node: 1, Rate: 0.5, PositionFromTail: 10}}}
	if reqs := (Greedy{}).Schedule(schedInput(3, c)); len(reqs) != 0 {
		t.Fatalf("scheduled unservable segment: %+v", reqs)
	}
	// Zero-rate suppliers are ignored entirely.
	c = Candidate{ID: 105, Suppliers: []Supplier{{Node: 1, Rate: 0}}}
	if reqs := (Greedy{}).Schedule(schedInput(3, c)); len(reqs) != 0 {
		t.Fatalf("scheduled with zero-rate supplier: %+v", reqs)
	}
}

func TestGreedyExpectedAtWithinTau(t *testing.T) {
	f := func(rates []uint8, budget uint8) bool {
		var cands []Candidate
		for i, r := range rates {
			cands = append(cands, Candidate{
				ID: segment.ID(110 + i),
				Suppliers: []Supplier{{
					Node: i % 4, Rate: float64(r%30) + 0.5, PositionFromTail: int(r),
				}},
			})
		}
		reqs := (Greedy{}).Schedule(schedInput(int(budget%16), cands...))
		perSupplier := map[int]sim.Time{}
		for _, r := range reqs {
			if r.ExpectedAt <= 0 || r.ExpectedAt >= sim.Second {
				return false
			}
			// Queueing times are monotone per supplier.
			if r.ExpectedAt < perSupplier[r.Supplier] {
				return false
			}
			perSupplier[r.Supplier] = r.ExpectedAt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyNoDuplicateSegments(t *testing.T) {
	f := func(ids []uint8) bool {
		var cands []Candidate
		for _, raw := range ids {
			cands = append(cands, Candidate{
				ID:        segment.ID(101 + raw%50),
				Suppliers: []Supplier{{Node: int(raw % 5), Rate: 30, PositionFromTail: 50}},
			})
		}
		reqs := (Greedy{}).Schedule(schedInput(30, cands...))
		seen := map[segment.ID]bool{}
		for _, r := range reqs {
			if seen[r.ID] {
				return false
			}
			seen[r.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRarestFirstOrdering(t *testing.T) {
	common := Candidate{ID: 105, Suppliers: []Supplier{
		{Node: 1, Rate: 20, PositionFromTail: 10},
		{Node: 2, Rate: 20, PositionFromTail: 10},
		{Node: 3, Rate: 20, PositionFromTail: 10},
	}}
	rare := Candidate{ID: 400, Suppliers: []Supplier{{Node: 1, Rate: 20, PositionFromTail: 10}}}
	reqs := (RarestFirst{}).Schedule(schedInput(1, common, rare))
	if len(reqs) != 1 || reqs[0].ID != 400 {
		t.Fatalf("rarest-first picked %+v", reqs)
	}
	// Tie on supplier count: earlier deadline wins.
	a := Candidate{ID: 300, Suppliers: []Supplier{{Node: 1, Rate: 20, PositionFromTail: 10}}}
	b := Candidate{ID: 120, Suppliers: []Supplier{{Node: 2, Rate: 20, PositionFromTail: 10}}}
	reqs = (RarestFirst{}).Schedule(schedInput(1, a, b))
	if len(reqs) != 1 || reqs[0].ID != 120 {
		t.Fatalf("tie-break picked %+v", reqs)
	}
}

func TestPoliciesRun(t *testing.T) {
	cands := []Candidate{
		{ID: 105, Suppliers: []Supplier{{Node: 1, Rate: 30, PositionFromTail: 550}}},
		{ID: 350, Suppliers: []Supplier{{Node: 2, Rate: 30, PositionFromTail: 10}}},
	}
	for _, p := range []Policy{Greedy{}, RarestFirst{}} {
		if p.Name() == "" {
			t.Fatal("empty policy name")
		}
		reqs := p.Schedule(schedInput(2, cands...))
		if len(reqs) != 2 {
			t.Fatalf("%s scheduled %d", p.Name(), len(reqs))
		}
	}
}
