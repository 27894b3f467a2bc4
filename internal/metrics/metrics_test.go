package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundSampleRatios(t *testing.T) {
	s := RoundSample{
		PlayingNodes:        100,
		ContinuousNodes:     83,
		ControlBits:         620 * 5 * 100,
		DataBits:            30 * 1024 * 10 * 100,
		PrefetchRoutingBits: 80 * 100,
		PrefetchDataBits:    30 * 1024 * 2,
	}
	if got := s.Continuity(); got != 0.83 {
		t.Fatalf("continuity = %v", got)
	}
	wantCtl := float64(620*5*100) / float64(30*1024*10*100)
	if got := s.ControlOverhead(); math.Abs(got-wantCtl) > 1e-12 {
		t.Fatalf("control overhead = %v want %v", got, wantCtl)
	}
	wantPf := float64(80*100+30*1024*2) / float64(30*1024*10*100)
	if got := s.PrefetchOverhead(); math.Abs(got-wantPf) > 1e-12 {
		t.Fatalf("prefetch overhead = %v want %v", got, wantPf)
	}
}

func TestRoundSampleZeroDenominators(t *testing.T) {
	var s RoundSample
	if s.Continuity() != 0 || s.ControlOverhead() != 0 || s.PrefetchOverhead() != 0 {
		t.Fatal("zero sample should produce zero ratios")
	}
}

// TestRoundSampleAddSumsEveryCounter sets every integer counter to a
// distinct value and adds the sample to itself twice over: each counter
// must come out doubled and Round untouched, so a counter added to
// RoundSample without a line in Add fails here.
func TestRoundSampleAddSumsEveryCounter(t *testing.T) {
	var one RoundSample
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanInt() {
			f.SetInt(int64(i + 1))
		}
	}
	sum := RoundSample{Round: one.Round}
	sum.Add(one)
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).CanInt() {
			continue
		}
		name := v.Type().Field(i).Name
		want := 2 * v.Field(i).Int()
		if name == "Round" {
			want = v.Field(i).Int()
		}
		if got.Field(i).Int() != want {
			t.Errorf("%s = %d after adding %d twice, want %d", name, got.Field(i).Int(), v.Field(i).Int(), want)
		}
	}
}

func TestSeriesMeans(t *testing.T) {
	s := Series{Name: "x"}
	for _, v := range []float64{0.2, 0.4, 0.9, 0.9, 0.9} {
		s.Append(v)
	}
	if math.Abs(s.Mean()-0.66) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if got := s.TailMean(3); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("tail mean = %v", got)
	}
	if got := s.TailMean(100); got != s.Mean() {
		t.Fatalf("oversized tail mean = %v", got)
	}
	var empty Series
	if empty.Mean() != 0 || empty.TailMean(3) != 0 {
		t.Fatal("empty series means nonzero")
	}
	if !strings.Contains(s.String(), "x{n=5") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestStableRound(t *testing.T) {
	s := Series{}
	for _, v := range []float64{0.1, 0.3, 0.5, 0.8, 0.95, 0.97, 0.96, 0.97} {
		s.Append(v)
	}
	// Tail mean over 4 ≈ 0.9625; first index within 0.05 staying within: 4.
	if got := s.StableRound(4, 0.05); got != 4 {
		t.Fatalf("StableRound = %d", got)
	}
	osc := Series{Values: []float64{0, 1, 0, 1, 0, 1}}
	if got := osc.StableRound(3, 0.01); got != -1 {
		t.Fatalf("oscillating series stabilised at %d", got)
	}
	var empty Series
	if empty.StableRound(3, 0.1) != -1 {
		t.Fatal("empty series stabilised")
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.Record(RoundSample{Round: 0, PlayingNodes: 10, ContinuousNodes: 5, DataBits: 100, ControlBits: 10})
	c.Record(RoundSample{Round: 1, PlayingNodes: 10, ContinuousNodes: 10, DataBits: 300, ControlBits: 10, PrefetchDataBits: 30, Deliveries: 7, Prefetches: 2, Overdue: 1, Repeated: 1})
	if c.Rounds() != 2 || len(c.Samples()) != 2 {
		t.Fatal("record count wrong")
	}
	cont := c.ContinuitySeries()
	if cont.Len() != 2 || cont.Values[0] != 0.5 || cont.Values[1] != 1.0 {
		t.Fatalf("continuity series = %+v", cont.Values)
	}
	ctl := c.ControlOverheadSeries()
	if math.Abs(ctl.Values[0]-0.1) > 1e-12 {
		t.Fatalf("control series = %+v", ctl.Values)
	}
	pf := c.PrefetchOverheadSeries()
	if pf.Values[0] != 0 || math.Abs(pf.Values[1]-0.1) > 1e-12 {
		t.Fatalf("prefetch series = %+v", pf.Values)
	}
	totals := c.Totals()
	if totals.DataBits != 400 || totals.ControlBits != 20 || totals.Deliveries != 7 ||
		totals.Prefetches != 2 || totals.Overdue != 1 || totals.Repeated != 1 {
		t.Fatalf("totals = %+v", totals)
	}
	if totals.PlayingNodes != 20 || totals.ContinuousNodes != 15 || totals.Continuity() != 0.75 {
		t.Fatalf("totals node counts = %d playing, %d continuous (continuity %v); want 20, 15 (0.75)",
			totals.PlayingNodes, totals.ContinuousNodes, totals.Continuity())
	}
	if got := totals.ControlOverhead(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("aggregate control = %v", got)
	}
	if got := totals.PrefetchOverhead(); math.Abs(got-30.0/400) > 1e-12 {
		t.Fatalf("aggregate prefetch = %v", got)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("Figure X", "n", "continuity")
	tbl.AddRow(100, 0.83)
	tbl.AddRow(8000, 0.714999)
	out := tbl.Render()
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "0.8300") || !strings.Contains(out, "0.7150") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	csv := tbl.RenderCSV()
	if !strings.HasPrefix(csv, "n,continuity\n") || !strings.Contains(csv, "8000,0.7150") {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestTableUnevenRows(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow(1, 2, 3)
	out := tbl.Render()
	if !strings.Contains(out, "3") {
		t.Fatalf("wide row lost cells:\n%s", out)
	}
}

// Property: continuity is always within [0,1] for well-formed samples, and
// TailMean never exceeds the max of the series.
func TestMetricsBoundsQuick(t *testing.T) {
	f := func(cont []uint8, tail uint8) bool {
		s := Series{}
		maxV := 0.0
		for _, c := range cont {
			v := float64(c) / 255
			if v > maxV {
				maxV = v
			}
			s.Append(v)
		}
		tm := s.TailMean(int(tail%10) + 1)
		return tm <= maxV+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
