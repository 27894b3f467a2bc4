package churn

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"continustreaming/internal/sim"
)

func TestExponentialTraceConstantHazard(t *testing.T) {
	m := ExponentialTrace(20, 20)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-1.0/20)
	for r := 0; r < m.Rounds(); r++ {
		leave, join := m.Rates(r)
		if math.Abs(leave-want) > 1e-12 || leave != join {
			t.Fatalf("round %d rates (%v, %v), want constant %v", r, leave, join, want)
		}
	}
}

func TestParetoTraceDecaysAndBalances(t *testing.T) {
	m := ParetoTrace(30, 1.5, 2)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	first, _ := m.Rates(0)
	last, _ := m.Rates(m.Rounds() - 1)
	if first <= 0 || last <= 0 {
		t.Fatalf("non-positive hazard: first %v last %v", first, last)
	}
	if last > first {
		t.Fatalf("heavy-tail hazard should not grow: first %v last %v", first, last)
	}
	for r := 0; r < m.Rounds(); r++ {
		leave, join := m.Rates(r)
		if leave != join {
			t.Fatalf("round %d leave %v != join %v (population must hold)", r, leave, join)
		}
	}
}

func TestDiurnalTraceFlashSpike(t *testing.T) {
	const flashRound, flashFrac = 10, 0.3
	m := DiurnalTrace(24, 24, 0.01, 0.08, flashRound, flashFrac)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	flash, _ := m.Rates(flashRound)
	beforeFlash, _ := m.Rates(flashRound - 1)
	if flash < beforeFlash+flashFrac-0.05 {
		t.Fatalf("flash round leave %v barely above neighbour %v", flash, beforeFlash)
	}
	// Off-flash rounds stay inside [base, peak].
	for r := 0; r < m.Rounds(); r++ {
		if r == flashRound {
			continue
		}
		leave, _ := m.Rates(r)
		if leave < 0.01-1e-9 || leave > 0.08+1e-9 {
			t.Fatalf("round %d leave %v outside [base, peak]", r, leave)
		}
	}
}

func TestTraceRatesClampPastEnd(t *testing.T) {
	m := &TraceModel{Name: "t", Leave: []float64{0.1, 0.2}, Join: []float64{0.3, 0.4}}
	if l, j := m.Rates(-1); l != 0.1 || j != 0.3 {
		t.Fatalf("negative round: (%v, %v)", l, j)
	}
	if l, j := m.Rates(99); l != 0.2 || j != 0.4 {
		t.Fatalf("past end: (%v, %v)", l, j)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	orig := DiurnalTrace(12, 6, 0.01, 0.07, 4, 0.25)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.Rounds() != orig.Rounds() {
		t.Fatalf("round trip changed shape: %q/%d -> %q/%d", orig.Name, orig.Rounds(), got.Name, got.Rounds())
	}
	for r := 0; r < orig.Rounds(); r++ {
		ol, oj := orig.Rates(r)
		gl, gj := got.Rates(r)
		if math.Abs(ol-gl) > 1e-6 || math.Abs(oj-gj) > 1e-6 {
			t.Fatalf("round %d drifted: (%v,%v) -> (%v,%v)", r, ol, oj, gl, gj)
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	for _, tc := range []string{
		"",
		"not a trace\n0 0.1 0.1\n",
		"continustreaming-churn-trace v1 x\n1 0.1 0.1\n",  // round out of order
		"continustreaming-churn-trace v1 x\n0 1.5 0.1\n",  // fraction out of range
		"continustreaming-churn-trace v1 x\n0 nope 0.1\n", // unparsable
	} {
		if _, err := ReadTrace(strings.NewReader(tc)); err == nil {
			t.Fatalf("accepted garbage trace %q", tc)
		}
	}
}

func TestProcessFollowsTrace(t *testing.T) {
	// A two-phase trace: nothing for 5 rounds, then a heavy flash. The
	// process must produce zero leavers in phase one and a large batch at
	// the flash round.
	trace := &TraceModel{Name: "step", Leave: make([]float64, 10), Join: make([]float64, 10)}
	trace.Leave[5] = 0.5
	cfg := Config{GracefulFraction: 0.5, Trace: trace}
	if !cfg.Enabled() {
		t.Fatal("trace with a flash round reports disabled")
	}
	p := NewProcess(cfg, sim.DeriveRNG(1, 1))
	const pop = 200
	for r := 0; r < 10; r++ {
		plan := p.Next(r, pop)
		switch {
		case r == 5:
			if got := plan.TotalLeavers(); got < 90 || got > 110 {
				t.Fatalf("flash round churned %d of %d, want ~100", got, pop)
			}
		default:
			if plan.TotalLeavers() != 0 {
				t.Fatalf("round %d churned %d leavers on a zero-rate trace", r, plan.TotalLeavers())
			}
		}
	}
}

// FuzzReadTrace drives the -churntrace parser with arbitrary text: it must
// never panic, a trace it accepts must pass Validate, and Rates must hold
// the first and last rounds' values on either side of the recorded horizon.
func FuzzReadTrace(f *testing.F) {
	for _, m := range []*TraceModel{
		ExponentialTrace(8, 20),
		ParetoTrace(8, 1.5, 4),
		DiurnalTrace(12, 6, 0.01, 0.07, 4, 0.25),
	} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("continustreaming-churn-trace v1\n# comment\n\n0 0.5 0\n"))
	f.Add([]byte("continustreaming-churn-trace v1 x\n1 0.1 0.1\n"))
	f.Add([]byte("continustreaming-churn-trace v1 x\n0 NaN 0.1\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		last := m.Rounds() - 1
		for _, tc := range [][2]int{{-1, 0}, {last + 1, last}, {math.MaxInt, last}} {
			gl, gj := m.Rates(tc[0])
			wl, wj := m.Rates(tc[1])
			if gl != wl || gj != wj {
				t.Fatalf("Rates(%d) = (%v, %v), want round %d's (%v, %v)", tc[0], gl, gj, tc[1], wl, wj)
			}
		}
	})
}
