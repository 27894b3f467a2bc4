package continustreaming

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
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
	b, err := RunContext(context.Background(), cfg, 10)
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
	res, err := RunContext(ctx, DefaultConfig(120), 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Continuity.Len() != 0 {
		t.Fatalf("cancelled-before-start run recorded %d rounds", res.Continuity.Len())
	}
}

// TestRunContextStopsAtRoundBoundary cancels mid-run from the OnRound
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
	cfg.OnRound = func(round int, _ Snapshot) {
		if round == 4 {
			cancel()
		}
	}
	part, err := RunContext(ctx, cfg, 12)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := part.Continuity.Len(); got != 5 {
		t.Fatalf("cancelled at round 4, ran %d rounds (want 5)", got)
	}
	for i := 0; i < part.Continuity.Len(); i++ {
		if part.Continuity.Values[i] != full.Continuity.Values[i] ||
			part.ControlOverhead.Values[i] != full.ControlOverhead.Values[i] {
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
	cfg.OnRound = func(round int, s Snapshot) {
		if round != s.Round {
			t.Fatalf("OnRound round arg %d != snapshot round %d", round, s.Round)
		}
		snaps = append(snaps, s)
	}
	hooked, err := Run(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 10 {
		t.Fatalf("OnRound fired %d times for 10 rounds", len(snaps))
	}
	for i, s := range snaps {
		if s.Round != i {
			t.Fatalf("snapshot %d has round %d", i, s.Round)
		}
		if s.Nodes <= 0 {
			t.Fatalf("round %d snapshot has %d playing nodes", i, s.Nodes)
		}
		if s.Continuity != hooked.Continuity.Values[i] ||
			s.ContinuityWarm != hooked.ContinuityWarm.Values[i] ||
			s.ControlOverhead != hooked.ControlOverhead.Values[i] ||
			s.PrefetchOverhead != hooked.PrefetchOverhead.Values[i] {
			t.Fatalf("snapshot %d disagrees with the result series", i)
		}
	}
	if !reflect.DeepEqual(plain.Continuity, hooked.Continuity) {
		t.Fatal("installing OnRound changed the simulation")
	}
}

// TestScenarioConstructorsSpanTheGrid pins each constructor's
// environment knobs.
func TestScenarioConstructorsSpanTheGrid(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		system      System
		dynamic     bool
		homogeneous bool
	}{
		{"hetstatic", ScenarioHetStatic(500), ContinuStreaming, false, false},
		{"hetdynamic", ScenarioHetDynamic(500), ContinuStreaming, true, false},
		{"homstatic", ScenarioHomStatic(500), ContinuStreaming, false, true},
		{"homdynamic", ScenarioHomDynamic(500), ContinuStreaming, true, true},
		{"flashcrowd", ScenarioFlashcrowd(500), ContinuStreaming, true, false},
		{"baseline", ScenarioBaseline(500), CoolStreaming, false, false},
	}
	for _, c := range cases {
		if c.cfg.Nodes != 500 {
			t.Errorf("%s: nodes = %d", c.name, c.cfg.Nodes)
		}
		if c.cfg.System != c.system || c.cfg.Dynamic != c.dynamic || c.cfg.Homogeneous != c.homogeneous {
			t.Errorf("%s: got (%v, dynamic=%v, homogeneous=%v)", c.name, c.cfg.System, c.cfg.Dynamic, c.cfg.Homogeneous)
		}
		if c.cfg.Seed == 0 {
			t.Errorf("%s: zero seed (would fall back to the core default implicitly)", c.name)
		}
		byName, err := ScenarioByName(c.name, 500)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(byName, c.cfg) {
			t.Errorf("ScenarioByName(%q) disagrees with the constructor", c.name)
		}
	}
	if got := len(Scenarios()); got != len(cases) {
		t.Errorf("Scenarios() lists %d names, tests cover %d", got, len(cases))
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

// TestHomogeneousKnobChangesOutcome checks the new Config field reaches
// the bandwidth profile: homogeneous and heterogeneous runs differ.
func TestHomogeneousKnobChangesOutcome(t *testing.T) {
	het := ScenarioHetStatic(200)
	het.Seed = 9
	hom := het
	hom.Homogeneous = true
	a, err := Run(het, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(hom, 12)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.ControlOverhead, b.ControlOverhead) && reflect.DeepEqual(a.Continuity, b.Continuity) {
		t.Fatal("homogeneous knob had no effect")
	}
}
