package continustreaming

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"continustreaming/internal/experiment"
)

// TestRunContextIsRun pins the wrapper contract: Run and an uncancelled
// RunContext are the same computation.
func TestRunContextIsRun(t *testing.T) {
	cfg := DefaultConfig(120)
	cfg.Seed = 7
	a, err := Run(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RunContext diverged from Run on the same config")
	}
}

// TestRunContextCancelledUpFront returns immediately with no rounds run.
func TestRunContextCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, DefaultConfig(120), 10, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Continuity.Len() != 0 {
		t.Fatalf("cancelled-before-start run recorded %d rounds", res.Continuity.Len())
	}
}

// TestRunContextStopsAtRoundBoundary cancels mid-run from the per-round
// hook and checks the partial result is a bit-identical prefix of the
// uninterrupted run.
func TestRunContextStopsAtRoundBoundary(t *testing.T) {
	cfg := DefaultConfig(120)
	cfg.Seed = 7
	full, err := Run(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	part, err := RunContext(ctx, cfg, 12, func(s Snapshot) {
		if s.Round == 4 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := part.Continuity.Len(); got != 5 {
		t.Fatalf("cancelled at round 4, ran %d rounds (want 5)", got)
	}
	for i := 0; i < part.Continuity.Len(); i++ {
		if part.Continuity.Values[i] != full.Continuity.Values[i] ||
			part.Control.Values[i] != full.Control.Values[i] {
			t.Fatalf("round %d of the partial run diverges from the full run", i)
		}
	}
}

// TestOnRoundMatchesResultSeries checks the hook fires once per round, in
// order, with values identical to the final Result — and that installing
// it does not perturb the simulation.
func TestOnRoundMatchesResultSeries(t *testing.T) {
	cfg := DefaultConfig(120)
	cfg.Seed = 3
	plain, err := Run(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	hooked, err := RunContext(context.Background(), cfg, 10, func(s Snapshot) { snaps = append(snaps, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 10 {
		t.Fatalf("the hook fired %d times for 10 rounds", len(snaps))
	}
	for i, s := range snaps {
		if s.Round != i {
			t.Fatalf("snapshot %d has round %d", i, s.Round)
		}
		if s.PlayingNodes <= 0 {
			t.Fatalf("round %d snapshot has %d playing nodes", i, s.PlayingNodes)
		}
		if s.Continuity() != hooked.Continuity.Values[i] ||
			s.ContinuityWarm() != hooked.ContinuityWarm.Values[i] ||
			s.ControlOverhead() != hooked.Control.Values[i] ||
			s.PrefetchOverhead() != hooked.Prefetch.Values[i] {
			t.Fatalf("snapshot %d disagrees with the result series", i)
		}
	}
	if !reflect.DeepEqual(plain.Continuity, hooked.Continuity) {
		t.Fatal("installing the hook changed the simulation")
	}
}

// scenarioGrid is what each scenario name means: the constructor behind
// it, and its system, membership and bandwidth arrangement.
var scenarioGrid = []struct {
	name        string
	ctor        func(int) Config
	system      Profile
	dynamic     bool
	homogeneous bool
}{
	{"hetstatic", ScenarioHetStatic, ContinuStreaming(), false, false},
	{"hetdynamic", ScenarioHetDynamic, ContinuStreaming(), true, false},
	{"homstatic", ScenarioHomStatic, ContinuStreaming(), false, true},
	{"homdynamic", ScenarioHomDynamic, ContinuStreaming(), true, true},
	{"flashcrowd", ScenarioFlashcrowd, ContinuStreaming(), true, false},
	{"baseline", ScenarioBaseline, CoolStreaming(), false, false},
}

// TestScenarioConstructorsSpanTheGrid pins each constructor's
// environment knobs.
func TestScenarioConstructorsSpanTheGrid(t *testing.T) {
	for _, c := range scenarioGrid {
		cfg := c.ctor(500)
		if cfg.Nodes != 500 {
			t.Errorf("%s: nodes = %d", c.name, cfg.Nodes)
		}
		if cfg.Profile != c.system || cfg.Churn.Enabled() != c.dynamic || cfg.Bandwidth.Homogeneous != c.homogeneous {
			t.Errorf("%s: got (%v, dynamic=%v, homogeneous=%v)", c.name, cfg.Profile.Name, cfg.Churn.Enabled(), cfg.Bandwidth.Homogeneous)
		}
		byName, err := ScenarioByName(c.name, 500)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(byName, cfg) {
			t.Errorf("ScenarioByName(%q) disagrees with the constructor", c.name)
		}
	}
	if got := len(Scenarios()); got != len(scenarioGrid) {
		t.Errorf("Scenarios() lists %d names, tests cover %d", got, len(scenarioGrid))
	}
}

// TestScenarioConfigIsExperimentConfig: a scenario and the experiment
// harness's run for the same population, system and environment are the
// same configuration, field for field — `continusim -scenario hetdynamic`
// and Figure 8's ContinuStreaming point build the same world. Comparable
// at all because there is one config type from flag to world.
func TestScenarioConfigIsExperimentConfig(t *testing.T) {
	for _, c := range scenarioGrid {
		got, err := ScenarioByName(c.name, 700)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := experiment.DefaultOptions().ConfigFor(700, c.system, c.dynamic)
		want.Bandwidth.Homogeneous = c.homogeneous // Table 1 sets it the same way
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scenario %+v, experiment harness %+v", c.name, got, want)
		}
	}
}

// TestScenarioByNameSuffixes covers the population-suffix grammar.
func TestScenarioByNameSuffixes(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		want int
	}{
		{"flashcrowd100k", 0, 100_000},
		{"flashcrowd10k", 5, 10_000}, // suffix wins over the argument
		{"flashcrowd1m", 0, 1_000_000},
		{"hetdynamic8000", 0, 8000},
		{"HomStatic2K", 0, 2000}, // case-insensitive
		{"baseline", 777, 777},
		{"baseline", 0, 1000}, // bare name, default population
	} {
		cfg, err := ScenarioByName(c.name, c.n)
		if err != nil {
			t.Fatalf("ScenarioByName(%q, %d): %v", c.name, c.n, err)
		}
		if cfg.Nodes != c.want {
			t.Errorf("ScenarioByName(%q, %d).Nodes = %d, want %d", c.name, c.n, cfg.Nodes, c.want)
		}
	}
	for _, bad := range []string{"", "fig5", "flashcrowd-10k", "flashcrowd0k", "baselinex"} {
		if _, err := ScenarioByName(bad, 100); err == nil {
			t.Errorf("ScenarioByName(%q) accepted", bad)
		}
	}
}

// FuzzScenarioByName drives the config entry point that takes raw CLI
// text (continusim -scenario): it must never panic, an accepted name
// must yield a positive population, and a name that carries a population
// suffix must never come back at the 1000-node default unless the suffix
// spells 1000 — the silent fallback an overflowing "…k" suffix used to
// take. testdata/fuzz/FuzzScenarioByName holds that input.
func FuzzScenarioByName(f *testing.F) {
	for _, name := range []string{"flashcrowd100k", "hetdynamic8000", "HomStatic2K", "baseline", " flashcrowd1m ", "baseline1000", "hetstatic01k", "flashcrowd-10k", "fig5", ""} {
		f.Add(name, 0)
	}
	f.Add("baseline", 777)
	f.Fuzz(func(t *testing.T, name string, n int) {
		cfg, err := ScenarioByName(name, n)
		if err != nil {
			return
		}
		if cfg.Nodes <= 0 {
			t.Fatalf("ScenarioByName(%q, %d) accepted with Nodes = %d", name, n, cfg.Nodes)
		}
		if cfg.Nodes != 1000 {
			return
		}
		base := strings.ToLower(strings.TrimSpace(name))
		for _, prefix := range Scenarios() {
			suffix, ok := strings.CutPrefix(base, prefix)
			if !ok || suffix == "" {
				continue
			}
			digits, mult := suffix, 1
			if d, ok := strings.CutSuffix(suffix, "k"); ok {
				digits, mult = d, 1000
			}
			if v, err := strconv.Atoi(digits); err != nil || v <= 0 || v > 1000 || v*mult != 1000 {
				t.Fatalf("ScenarioByName(%q, %d) fell back to 1000 nodes past its suffix %q", name, n, suffix)
			}
		}
	})
}

// TestHomogeneousKnobChangesOutcome: homogeneous and heterogeneous runs
// differ.
func TestHomogeneousKnobChangesOutcome(t *testing.T) {
	het := ScenarioHetStatic(200)
	het.Seed = 9
	hom := het
	hom.Bandwidth.Homogeneous = true
	a, err := Run(het, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(hom, 12)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Control, b.Control) && reflect.DeepEqual(a.Continuity, b.Continuity) {
		t.Fatal("homogeneous knob had no effect")
	}
}
