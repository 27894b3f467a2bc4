package churn

import (
	"math"
	"testing"
	"testing/quick"

	"continustreaming/internal/sim"
)

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.LeaveFraction != 0.05 || c.JoinFraction != 0.05 {
		t.Fatalf("defaults: %+v", c)
	}
	if !c.Enabled() {
		t.Fatal("default config disabled")
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config enabled")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Config{
		{LeaveFraction: -0.1},
		{LeaveFraction: 1.0},
		{JoinFraction: 1.5},
		{GracefulFraction: -1},
		{GracefulFraction: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, c)
		}
	}
}

func TestNewProcessPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewProcess(Config{LeaveFraction: -1}, sim.NewRNG(1))
}

func TestNextRates(t *testing.T) {
	p := NewProcess(DefaultConfig(), sim.NewRNG(7))
	totalLeave, totalJoin := 0, 0
	const rounds, pop = 200, 1000
	for r := 0; r < rounds; r++ {
		plan := p.Next(r, pop)
		totalLeave += plan.TotalLeavers()
		totalJoin += plan.Joins
		// No duplicate leavers within a round.
		seen := map[int]bool{}
		for _, i := range append(append([]int{}, plan.GracefulLeavers...), plan.AbruptLeavers...) {
			if i < 0 || i >= pop || seen[i] {
				t.Fatalf("bad leaver index %d", i)
			}
			seen[i] = true
		}
	}
	// 5% of 1000 over 200 rounds = 10000 expected.
	if math.Abs(float64(totalLeave)-10000) > 500 {
		t.Fatalf("leavers = %d, want ~10000", totalLeave)
	}
	if math.Abs(float64(totalJoin)-10000) > 500 {
		t.Fatalf("joins = %d, want ~10000", totalJoin)
	}
}

func TestGracefulSplit(t *testing.T) {
	cfg := DefaultConfig()
	p := NewProcess(cfg, sim.NewRNG(9))
	graceful, abrupt := 0, 0
	for r := 0; r < 500; r++ {
		plan := p.Next(r, 500)
		graceful += len(plan.GracefulLeavers)
		abrupt += len(plan.AbruptLeavers)
	}
	total := graceful + abrupt
	if total == 0 {
		t.Fatal("no leavers at all")
	}
	ratio := float64(graceful) / float64(total)
	if math.Abs(ratio-0.5) > 0.05 {
		t.Fatalf("graceful ratio = %v, want ~0.5", ratio)
	}
}

func TestFractionalCarrySmallPopulations(t *testing.T) {
	// 5% of 10 nodes = 0.5/round; over 100 rounds must yield ~50 leavers,
	// not zero.
	p := NewProcess(DefaultConfig(), sim.NewRNG(11))
	total := 0
	for r := 0; r < 100; r++ {
		total += p.Next(r, 10).TotalLeavers()
	}
	if total < 35 || total > 65 {
		t.Fatalf("small-population leavers = %d, want ~50", total)
	}
}

func TestZeroPopulation(t *testing.T) {
	p := NewProcess(DefaultConfig(), sim.NewRNG(15))
	plan := p.Next(0, 0)
	if plan.TotalLeavers() != 0 || plan.Joins != 0 {
		t.Fatal("churned an empty population")
	}
}

// Property: plans never select more leavers than the population, and all
// indices are distinct and in range.
func TestPlanSanityQuick(t *testing.T) {
	f := func(seed uint64, pops []uint16) bool {
		p := NewProcess(DefaultConfig(), sim.NewRNG(seed))
		for r, rawPop := range pops {
			pop := int(rawPop % 2000)
			plan := p.Next(r, pop)
			if plan.TotalLeavers() > pop {
				return false
			}
			seen := map[int]bool{}
			for _, i := range append(append([]int{}, plan.GracefulLeavers...), plan.AbruptLeavers...) {
				if i < 0 || i >= pop || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
