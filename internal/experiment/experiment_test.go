package experiment

import (
	"strings"
	"testing"

	"continustreaming/internal/core"
)

// tinyOptions keeps integration runs fast; the qualitative assertions
// below are size-independent.
func tinyOptions() Options {
	return Options{Rounds: 18, StableTail: 5, Sizes: []int{80, 150}, Seed: 3}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	d := DefaultOptions()
	if o.Rounds != d.Rounds || o.Seed != d.Seed || len(o.Sizes) != len(d.Sizes) {
		t.Fatalf("normalized zero options = %+v", o)
	}
	o = Options{Rounds: 5, StableTail: 50}.normalized()
	if o.StableTail != 5 {
		t.Fatalf("stable tail not clamped: %d", o.StableTail)
	}
}

func TestFigure3Shape(t *testing.T) {
	res := RunFigure3(Options{Seed: 2})
	if res.SpaceSize != 8192 || len(res.Points) == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	for _, p := range res.Points {
		if p.SuccessRate < 0.85 {
			t.Fatalf("n=%d success %.3f too low", p.Nodes, p.SuccessRate)
		}
		// Average hops should track log2(n)/2 within a couple of hops.
		if p.AvgHops < p.ExpectedHops-2 || p.AvgHops > p.ExpectedHops+2 {
			t.Fatalf("n=%d hops %.2f vs expected %.2f", p.Nodes, p.AvgHops, p.ExpectedHops)
		}
	}
	// Hops grow with population.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.AvgHops <= first.AvgHops {
		t.Fatal("hops did not grow with n")
	}
	if !strings.Contains(res.Table().Render(), "DHT routing") {
		t.Fatal("table render broken")
	}
}

func TestTable1TheoryRows(t *testing.T) {
	// Check only the closed-form rows here (simulation rows are covered by
	// the track tests); build with a minimal simulated environment set by
	// reusing tiny options but verifying rows 0-1 numerically.
	res, err := RunTable1(Options{Rounds: 12, StableTail: 4, Sizes: []int{60}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	l15 := res.Rows[0]
	if l15.PCOld < 0.88 || l15.PCOld > 0.885 || l15.PCNew < 0.99 {
		t.Fatalf("λ=15 theory row wrong: %+v", l15)
	}
	l14 := res.Rows[1]
	if l14.PCOld < 0.82 || l14.PCOld > 0.83 {
		t.Fatalf("λ=14 theory row wrong: %+v", l14)
	}
	for _, row := range res.Rows {
		if row.PCNew < row.PCOld-0.05 {
			t.Fatalf("PCnew < PCold in %q: %+v", row.Environment, row)
		}
	}
	if !strings.Contains(res.Table().Render(), "theory λ=15") {
		t.Fatal("table render broken")
	}
}

func TestFigure5TrackShape(t *testing.T) {
	res, err := RunFigure5(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: both systems start at zero continuity.
	if res.Cool.Continuity.Values[0] != 0 || res.Continu.Continuity.Values[0] != 0 {
		t.Fatal("tracks do not start at zero")
	}
	// The full system must at least match the baseline in stable phase.
	if res.Continu.StableContinuity < res.Cool.StableContinuity-0.05 {
		t.Fatalf("Continu %.3f below Cool %.3f",
			res.Continu.StableContinuity, res.Cool.StableContinuity)
	}
	if res.Dynamic {
		t.Fatal("figure 5 is the static environment")
	}
	tbl := res.Table().Render()
	if !strings.Contains(tbl, "static") {
		t.Fatalf("table: %s", tbl)
	}
}

// TestDelayOverrideMovesPlayback: Options.Delay (continusim -delay) must
// reach the playback position. It was a silent no-op while the default
// config's segment-granular delay shadowed every rounds override.
func TestDelayOverrideMovesPlayback(t *testing.T) {
	track := func(o Options) string {
		t.Helper()
		o.Rounds, o.StableTail, o.Seed = 10, 4, 3
		res, err := RunFigure5(o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Table().Render()
	}
	rate := core.DefaultConfig(2).Stream.Rate
	base, rounds, segs := track(Options{}), track(Options{Delay: 3}), track(Options{DelaySegments: 3 * rate})
	if rounds == base {
		t.Fatal("Delay: 3 left the track identical to the default delay")
	}
	if rounds != segs {
		t.Fatalf("Delay: 3 and DelaySegments: %d disagree:\n%s\n%s", 3*rate, rounds, segs)
	}
	if both := track(Options{Delay: 5, DelaySegments: 3 * rate}); both != segs {
		t.Fatal("DelaySegments did not win over Delay")
	}
}

func TestFigure7SweepShape(t *testing.T) {
	res, err := RunFigure7(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Continu.StableContinuity < p.Cool.StableContinuity-0.05 {
			t.Fatalf("n=%d: Continu below Cool", p.Nodes)
		}
	}
	if !strings.Contains(res.Table().Render(), "delta") {
		t.Fatal("table render broken")
	}
}

func TestFigure9ControlOverheadShape(t *testing.T) {
	o := tinyOptions()
	o.Sizes = []int{100}
	res, err := RunFigure9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 { // M = 4, 5, 6
		t.Fatalf("points = %d", len(res.Points))
	}
	prev := 0.0
	for _, p := range res.Points {
		// §5.4.2: overhead close to (a little above) M/495, below 0.02.
		if p.Overhead <= 0 || p.Overhead > 0.025 {
			t.Fatalf("M=%d overhead %.4f out of range", p.M, p.Overhead)
		}
		if p.Overhead < p.Estimate*0.7 {
			t.Fatalf("M=%d overhead %.4f below the closed form %.4f", p.M, p.Overhead, p.Estimate)
		}
		if p.Overhead <= prev {
			t.Fatalf("overhead not increasing with M: %.4f then %.4f", prev, p.Overhead)
		}
		prev = p.Overhead
	}
}

func TestFigure10PrefetchOverheadShape(t *testing.T) {
	o := tinyOptions()
	res, err := RunFigure10(o)
	if err != nil {
		t.Fatal(err)
	}
	// §5.4.3: pre-fetch overhead is a minor cost.
	if res.Static.StablePrefetch < 0 || res.Static.StablePrefetch > 0.08 {
		t.Fatalf("static prefetch overhead %.4f", res.Static.StablePrefetch)
	}
	if res.Dynamic.StablePrefetch < 0 || res.Dynamic.StablePrefetch > 0.12 {
		t.Fatalf("dynamic prefetch overhead %.4f", res.Dynamic.StablePrefetch)
	}
	if !strings.Contains(res.Table().Render(), "Pre-fetch overhead track") {
		t.Fatal("table render broken")
	}
}

func TestFigure11SweepShape(t *testing.T) {
	o := tinyOptions()
	o.Sizes = []int{80}
	res, err := RunFigure11(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Static < 0 || p.Static > 0.1 || p.Dynamic < 0 || p.Dynamic > 0.15 {
			t.Fatalf("n=%d overheads %.4f/%.4f out of range", p.Nodes, p.Static, p.Dynamic)
		}
	}
	if !strings.Contains(res.Table().Render(), "dynamic") {
		t.Fatal("table render broken")
	}
}
