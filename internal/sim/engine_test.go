package sim

import (
	"sync/atomic"
	"testing"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock(Second)
	if c.Now() != 0 || c.Round() != 0 {
		t.Fatalf("fresh clock not at zero: %v round %d", c.Now(), c.Round())
	}
	if c.RoundEnd() != Second {
		t.Fatalf("RoundEnd = %v, want 1s", c.RoundEnd())
	}
	c.Advance()
	c.Advance()
	if c.Now() != 2*Second || c.Round() != 2 {
		t.Fatalf("after 2 advances: %v round %d", c.Now(), c.Round())
	}
}

func TestClockPanicsOnBadTau(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestTimeString(t *testing.T) {
	if got := (12345 * Millisecond).String(); got != "12.345s" {
		t.Fatalf("String = %q", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v", got)
	}
}

type countingSystem struct {
	steps int
	times []Time
}

func (s *countingSystem) Step(c *Clock) {
	s.steps++
	s.times = append(s.times, c.Now())
}

func TestEngineRunsRounds(t *testing.T) {
	sys := &countingSystem{}
	e := NewEngine(sys, Second)
	e.Run(2) // run in instalments: the clock carries on where it stopped
	end := e.Run(3)
	if sys.steps != 5 {
		t.Fatalf("steps = %d, want 5", sys.steps)
	}
	if end != 5*Second {
		t.Fatalf("end time = %v", end)
	}
	for i, at := range sys.times {
		if at != Time(i)*Second {
			t.Fatalf("round %d ran at %v", i, at)
		}
	}
}

func TestPoolForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		p := NewPool(workers)
		const n = 1000
		var hits [n]atomic.Int32
		p.ForEach(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d index %d hit %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestPoolForEachEmpty(t *testing.T) {
	p := NewPool(4)
	called := false
	p.ForEach(0, func(i int) { called = true })
	p.ForEach(-3, func(i int) { called = true })
	if called {
		t.Fatal("ForEach called fn for non-positive n")
	}
}
