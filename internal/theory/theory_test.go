package theory

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPoissonPMFBasics(t *testing.T) {
	// P{N=0} with λ=1 is e^-1.
	if got := PoissonPMF(1, 0); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Fatalf("pmf(1,0) = %v", got)
	}
	if PoissonPMF(-1, 3) != 0 || PoissonPMF(2, -1) != 0 {
		t.Fatal("invalid inputs should give 0")
	}
	if PoissonPMF(0, 0) != 1 || PoissonPMF(0, 2) != 0 {
		t.Fatal("degenerate lambda=0 distribution wrong")
	}
	// Large lambda must not overflow.
	if got := PoissonPMF(500, 500); got <= 0 || math.IsNaN(got) {
		t.Fatalf("pmf(500,500) = %v", got)
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.5, 5, 15, 40} {
		sum := 0.0
		for n := 0; n < 400; n++ {
			sum += PoissonPMF(lambda, n)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("lambda=%v pmf sums to %v", lambda, sum)
		}
	}
}

func TestPoissonCDFMonotoneQuick(t *testing.T) {
	f := func(lRaw, nRaw uint8) bool {
		lambda := float64(lRaw%50) + 0.5
		n := int(nRaw % 60)
		c0 := PoissonCDF(lambda, n)
		c1 := PoissonCDF(lambda, n+1)
		return c0 >= 0 && c1 <= 1+1e-12 && c1 >= c0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if PoissonCDF(5, -1) != 0 {
		t.Fatal("negative n should give 0")
	}
}

func paperModel(lambda float64) ContinuityModel {
	return ContinuityModel{Lambda: lambda, PlaybackRate: 10, TauSeconds: 1, Replicas: 4}
}

// The §5.1 table: λ=15 → PCold 0.8815, PCnew 0.9989, Δ 0.1174.
func TestPaperTableLambda15(t *testing.T) {
	m := paperModel(15)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.PCOld(); math.Abs(got-0.8815) > 1e-3 {
		t.Fatalf("PCold = %v, want 0.8815", got)
	}
	if got := m.PCNew(); math.Abs(got-0.9989) > 1e-3 {
		t.Fatalf("PCnew = %v, want 0.9989", got)
	}
	if got := m.Delta(); math.Abs(got-0.1174) > 2e-3 {
		t.Fatalf("Delta = %v, want 0.1174", got)
	}
}

// λ=14 → PCold 0.8243, PCnew 0.9975, Δ 0.1732.
func TestPaperTableLambda14(t *testing.T) {
	m := paperModel(14)
	if got := m.PCOld(); math.Abs(got-0.8243) > 1e-3 {
		t.Fatalf("PCold = %v, want 0.8243", got)
	}
	if got := m.PCNew(); math.Abs(got-0.9975) > 1e-3 {
		t.Fatalf("PCnew = %v, want 0.9975", got)
	}
	if got := m.Delta(); math.Abs(got-0.1732) > 2e-3 {
		t.Fatalf("Delta = %v, want 0.1732", got)
	}
}

func TestContinuityModelMonotonicity(t *testing.T) {
	// Higher arrival rate → higher continuity, lower expected misses.
	lo, hi := paperModel(12), paperModel(20)
	if lo.PCOld() >= hi.PCOld() {
		t.Fatal("PCold not monotone in lambda")
	}
	if lo.ExpectedMissed() <= hi.ExpectedMissed() {
		t.Fatal("expected missed not monotone")
	}
	// More replicas → higher PCnew.
	few := paperModel(14)
	few.Replicas = 1
	many := paperModel(14)
	many.Replicas = 8
	if few.PCNew() >= many.PCNew() {
		t.Fatal("PCnew not monotone in k")
	}
	// PCnew always dominates PCold.
	for lambda := 10.5; lambda < 25; lambda += 0.5 {
		m := paperModel(lambda)
		if m.PCNew() < m.PCOld() {
			t.Fatalf("PCnew < PCold at lambda=%v", lambda)
		}
		if d := m.Delta(); d < 0 || d > 1 {
			t.Fatalf("Delta out of range at lambda=%v: %v", lambda, d)
		}
	}
}

func TestPrefetchFailureProbability(t *testing.T) {
	m := paperModel(15)
	if got := m.PrefetchFailureProbability(); got != 1.0/16 {
		t.Fatalf("(1/2)^4 = %v", got)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []ContinuityModel{
		{},
		{Lambda: -1, PlaybackRate: 10, TauSeconds: 1},
		{Lambda: 15, PlaybackRate: 0, TauSeconds: 1},
		{Lambda: 15, PlaybackRate: 10, TauSeconds: 0},
		{Lambda: 15, PlaybackRate: 10, TauSeconds: 1, Replicas: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, m)
		}
	}
}

func TestRoutingHopBound(t *testing.T) {
	// log N / log(4/3) ≈ 2.409 · log2 N.
	got := RoutingHopBound(8192)
	want := 13.0 / math.Log2(4.0/3.0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("bound = %v, want %v", got, want)
	}
	ratio := RoutingHopBound(1<<20) / 20
	if math.Abs(ratio-2.409) > 0.01 {
		t.Fatalf("bound/log2N = %v, want ≈2.41", ratio)
	}
	if RoutingHopBound(1) != 0 {
		t.Fatal("degenerate ring bound nonzero")
	}
	if ExpectedRoutingHops(1024) != 5 {
		t.Fatalf("expected hops = %v", ExpectedRoutingHops(1024))
	}
	if ExpectedRoutingHops(0) != 0 {
		t.Fatal("degenerate expected hops nonzero")
	}
}

func TestControlOverheadEstimate(t *testing.T) {
	// §5.4.2: 620·M / (30·1024·10) = M/495.48…; for M=5 ≈ 0.0101.
	got := ControlOverheadEstimate(5, 600, 20, 10, 30*1024)
	if math.Abs(got-5.0/495.48387) > 1e-4 {
		t.Fatalf("estimate = %v", got)
	}
	// The paper rounds to M/495.
	if math.Abs(got-5.0/495) > 1e-4 {
		t.Fatalf("estimate deviates from paper's M/495: %v", got)
	}
}
