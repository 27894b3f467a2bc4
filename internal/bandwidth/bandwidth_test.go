package bandwidth

import (
	"math"
	"strings"
	"testing"

	"continustreaming/internal/sim"
)

func TestDefaultProfileValid(t *testing.T) {
	p := DefaultProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.MinIn != 10 || p.MaxIn != 33 || p.MeanIn != 15 || p.SourceOut != 100 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []Profile{
		{},
		{MeanIn: 15, MeanOut: 15, SourceOut: 0},
		{MeanIn: 15, MeanOut: 15, SourceOut: 100, MinIn: 0, MaxIn: 10, MinOut: 10, MaxOut: 20},
		{MeanIn: 15, MeanOut: 15, SourceOut: 100, MinIn: 20, MaxIn: 10, MinOut: 10, MaxOut: 20},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, p)
		}
	}
}

func TestHomogeneousDraw(t *testing.T) {
	p := DefaultProfile()
	p.Homogeneous = true
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		r := p.Draw(rng)
		if r.In != 15 || r.Out != 15 {
			t.Fatalf("homogeneous draw = %+v", r)
		}
	}
}

func TestHeterogeneousDrawMeanAndBounds(t *testing.T) {
	p := DefaultProfile()
	rng := sim.NewRNG(2)
	sumIn, sumOut := 0, 0
	const n = 200000
	for i := 0; i < n; i++ {
		r := p.Draw(rng)
		if r.In < 10 || r.In > 33 || r.Out < 10 || r.Out > 33 {
			t.Fatalf("draw out of range: %+v", r)
		}
		sumIn += r.In
		sumOut += r.Out
	}
	meanIn := float64(sumIn) / n
	meanOut := float64(sumOut) / n
	// §5.2: "let the average inbound rate be ... 450 Kbps, i.e. ... I = 15
	// in average".
	if math.Abs(meanIn-15) > 0.3 {
		t.Fatalf("mean inbound = %.2f, want ~15", meanIn)
	}
	if math.Abs(meanOut-15) > 0.3 {
		t.Fatalf("mean outbound = %.2f, want ~15", meanOut)
	}
}

func TestSourceRates(t *testing.T) {
	p := DefaultProfile()
	s := p.Source()
	if s.In != 0 || s.Out != 100 {
		t.Fatalf("source rates = %+v", s)
	}
}

func TestDrawSkewedDegenerateRanges(t *testing.T) {
	rng := sim.NewRNG(3)
	if v := drawSkewed(rng, 5, 10, 5); v != 5 {
		t.Fatalf("mean at min should pin to min, got %d", v)
	}
	for i := 0; i < 50; i++ {
		v := drawSkewed(rng, 5, 10, 12) // mean above max: plain uniform
		if v < 5 || v > 10 {
			t.Fatalf("out of range %d", v)
		}
	}
}

func TestControllerPriorAndServiceRate(t *testing.T) {
	c := NewController(0.5, 10)
	if got := c.Rate(7); got != 10 {
		t.Fatalf("prior = %v", got)
	}
	// Two segments requested and delivered within 400ms: a 5/s supplier,
	// NOT a 2-per-period one — the timestamp-based estimate must converge
	// near 5, which is what keeps the scheduler from starving itself.
	for i := 0; i < 30; i++ {
		c.NoteRequested(7, 2)
		c.ObserveDelivery(7, 0.2)
		c.ObserveDelivery(7, 0.4)
		c.Tick()
	}
	if got := c.Rate(7); math.Abs(got-5) > 0.5 {
		t.Fatalf("converged service rate = %v, want ~5", got)
	}
	if !c.Known(7) || c.Known(8) {
		t.Fatal("Known wrong")
	}
}

func TestControllerFailedRequestsDecay(t *testing.T) {
	c := NewController(0.5, 10)
	// Repeatedly request with zero deliveries: the supplier is failing us
	// and the estimate must fall toward the floor.
	for i := 0; i < 20; i++ {
		c.NoteRequested(3, 4)
		c.Tick()
	}
	if got := c.Rate(3); got > 0.1 {
		t.Fatalf("failing supplier rate = %v, want near floor", got)
	}
	if got := c.Rate(3); got < 0.05 {
		t.Fatalf("rate fell below floor: %v", got)
	}
}

func TestControllerIdleNeighboursRecover(t *testing.T) {
	c := NewController(0.5, 10)
	for i := 0; i < 20; i++ {
		c.NoteRequested(3, 4)
		c.Tick()
	}
	low := c.Rate(3)
	// Idle periods (no requests at all) drift the estimate back toward the
	// prior so the neighbour is eventually retried.
	for i := 0; i < 40; i++ {
		c.Tick()
	}
	if got := c.Rate(3); got <= low || got < 5 {
		t.Fatalf("idle neighbour did not recover: %v -> %v", low, got)
	}
}

func TestControllerSupplyTracksDeliveries(t *testing.T) {
	c := NewController(0.5, 10)
	if c.Supply(4) != 0 {
		t.Fatal("unknown supply nonzero")
	}
	for i := 0; i < 20; i++ {
		c.NoteRequested(4, 3)
		c.ObserveDelivery(4, 0.3)
		c.ObserveDelivery(4, 0.6)
		c.ObserveDelivery(4, 0.9)
		c.Tick()
	}
	if got := c.Supply(4); math.Abs(got-3) > 0.3 {
		t.Fatalf("supply = %v, want ~3/period", got)
	}
	// Silence decays supply toward zero — the "supplied little data"
	// replacement signal.
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	if got := c.Supply(4); got > 0.1 {
		t.Fatalf("silent supply = %v, want ~0", got)
	}
}

func TestControllerForget(t *testing.T) {
	c := NewController(0.5, 10)
	c.NoteRequested(1, 1)
	c.ObserveDelivery(1, 0.5)
	c.Tick()
	c.Forget(1)
	if c.Known(1) {
		t.Fatal("Forget did not remove estimate")
	}
	if got := c.Rate(1); got != 10 {
		t.Fatalf("forgotten neighbour rate = %v, want prior", got)
	}
	if c.Supply(1) != 0 {
		t.Fatal("forgotten supply nonzero")
	}
}

func TestControllerClampsBadConstruction(t *testing.T) {
	c := NewController(-1, -5)
	c.NoteRequested(1, 1)
	c.ObserveDelivery(1, 0.1)
	c.Tick()
	if c.Rate(1) <= 0 {
		t.Fatal("clamped controller produced non-positive rate")
	}
}

func TestControllerFastBurstHighRate(t *testing.T) {
	c := NewController(0.5, 10)
	// Five segments inside 100ms: observation window floor caps the rate
	// at 50/s for this burst.
	c.NoteRequested(2, 5)
	for i := 0; i < 5; i++ {
		c.ObserveDelivery(2, 0.05)
	}
	c.Tick()
	if got := c.Rate(2); got < 10 || got > 50 {
		t.Fatalf("burst rate = %v", got)
	}
}

func TestPerSegment(t *testing.T) {
	if got := PerSegment(10, sim.Second); got != sim.Second/10 {
		t.Fatalf("PerSegment(10, 1s) = %v", got)
	}
	if got := PerSegment(0, sim.Second); got != sim.Second {
		t.Fatalf("rate 0 must cost the whole period, got %v", got)
	}
	// Floored at the 1 ms simulation resolution.
	if got := PerSegment(int(2*sim.Second), sim.Second); got != 1 {
		t.Fatalf("sub-millisecond transfer not floored: %v", got)
	}
}

// TestControllerIDBound pins the int32 narrowing of a row's neighbour ID:
// the largest ID is tracked and read back beside the smallest, a writer
// handed one past the bound panics with a message that names it, and a
// reader asking about such an ID finds nothing.
func TestControllerIDBound(t *testing.T) {
	c := NewController(0.5, 10)
	for _, id := range []int{math.MaxInt32, math.MinInt32, 0} {
		c.NoteRequested(id, 1)
		c.ObserveDelivery(id, 0.5)
	}
	c.Tick()
	for _, id := range []int{math.MaxInt32, math.MinInt32, 0} {
		if !c.Known(id) || c.Supply(id) != 0.5 {
			t.Fatalf("neighbour %d: known %v, supply %v; want known, 0.5", id, c.Known(id), c.Supply(id))
		}
	}
	if c.Known(math.MaxInt32+1) || c.Rate(math.MaxInt32+1) != 10 || c.Supply(math.MinInt32-1) != 0 {
		t.Fatal("a neighbour past the int32 bound reads as tracked")
	}
	for _, id := range []int{math.MaxInt32 + 1, math.MinInt32 - 1} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "int32 bound 2147483647") {
					t.Errorf("NoteRequested(%d): panic %q, want one naming the int32 bound", id, msg)
				}
			}()
			c.NoteRequested(id, 1)
		}()
	}
}
