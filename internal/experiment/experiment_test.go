package experiment

import (
	"reflect"
	"strings"
	"testing"

	"continustreaming/internal/churn"
	"continustreaming/internal/core"
)

// options is DefaultOptions at a test-sized sweep shape, points running
// GOMAXPROCS-wide.
func options(rounds, tail int, seed uint64, sizes ...int) Options {
	o := DefaultOptions()
	o.Rounds, o.StableTail, o.Seed, o.Sizes, o.Par = rounds, tail, seed, sizes, 0
	return o
}

// tinyOptions keeps integration runs fast; the qualitative assertions
// below are size-independent.
func tinyOptions() Options { return options(18, 5, 3, 80, 150) }

// TestDefaultOptions: the base every run copies is the core's default
// configuration in the paper's dynamic environment, a static run is that
// minus the churn, and nothing fills a zero field in behind the caller.
func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	want := core.DefaultConfig(300)
	if got := o.ConfigFor(300, core.ProfileContinuStreaming(), false); !reflect.DeepEqual(got, want) {
		t.Fatalf("static run config = %+v, want core.DefaultConfig(300)", got)
	}
	want.Churn = churn.DefaultConfig()
	want.Profile = core.ProfileCoolStreaming()
	if got := o.ConfigFor(300, core.ProfileCoolStreaming(), true); !reflect.DeepEqual(got, want) {
		t.Fatalf("dynamic run config = %+v, want the default plus churn.DefaultConfig()", got)
	}
	if o.Rounds != 40 || o.StableTail != 10 || len(o.Sizes) != 6 || o.Par != 1 {
		t.Fatalf("sweep shape = %+v", o)
	}
	if _, err := RunFigure5(Options{}); err == nil {
		t.Fatal("zero Options ran: something is still defaulting them")
	}
	// A tail longer than the run averages the whole run.
	long, err := RunFigure7(options(8, 50, 3, 60))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := long.Points[0].Continu.StableContinuity, long.Points[0].Continu.Continuity.Mean(); got != want {
		t.Fatalf("over-long tail averaged %v, whole-run mean is %v", got, want)
	}
}

func TestFigure3Shape(t *testing.T) {
	res := RunFigure3(options(0, 0, 2))
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
	res, err := RunTable1(options(12, 4, 2, 60))
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

// TestDelayOverrideMovesPlayback: the base's playback delay must reach the
// playback position, in rounds (continusim -delay N alone: the calibrated
// segment-granular default cleared, or it would shadow N) and in segments,
// which win when both are set.
func TestDelayOverrideMovesPlayback(t *testing.T) {
	track := func(delayRounds, delaySegments int) string {
		t.Helper()
		o := options(10, 4, 3)
		o.PlaybackDelayRounds, o.PlaybackDelaySegments = delayRounds, delaySegments
		res, err := RunFigure5(o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Table().Render()
	}
	d := DefaultOptions()
	rate := d.Stream.Rate
	base, rounds, segs := track(d.PlaybackDelayRounds, d.PlaybackDelaySegments), track(3, 0), track(d.PlaybackDelayRounds, 3*rate)
	if rounds == base {
		t.Fatal("a 3-round delay left the track identical to the default delay")
	}
	if rounds != segs {
		t.Fatalf("3 rounds and %d segments disagree:\n%s\n%s", 3*rate, rounds, segs)
	}
	if both := track(5, 3*rate); both != segs {
		t.Fatal("the segment-granular delay did not win over the rounds")
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
