// Package experiment contains one runner per table and figure in the
// paper's evaluation (§5). Each runner builds worlds from internal/core,
// executes them, and returns both structured results and a rendered
// paper-style table. The top-level benchmarks and cmd/continusim are thin
// wrappers over these runners, and Run is the one world-plus-engine loop
// every road into a simulation goes through.
package experiment

import (
	"context"
	"fmt"

	"continustreaming/internal/churn"
	"continustreaming/internal/core"
	"continustreaming/internal/metrics"
	"continustreaming/internal/sim"
)

// Options is the base configuration every run of a sweep is built from,
// plus the shape of the sweep itself. Benchmarks use reduced sizes to stay
// fast; cmd/continusim binds its flags to these fields and defaults to the
// paper's full sweep. DefaultOptions is the only defaults mechanism: a zero
// field is a zero. DefaultOptions also opens a record of simulated points
// (see runAll) that its copies share, so the drivers of a sweep simulate
// each distinct point once and the copies drive one sweep at a time; a
// zero Options{} has none. A loaded Churn.Trace must not be mutated after
// a run: the record holds it by pointer.
type Options struct {
	// Config is the base every run copies (see ConfigFor): Seed, Workers,
	// the playback delay, the engine knobs and the rest of the §5.2 table.
	// Its Churn describes the dynamic environment — uniform 5%/round, or a
	// trace-driven schedule in Churn.Trace (cmd/tracegen -churn) — and
	// static runs clear it; Nodes and Profile are set per run.
	core.Config
	// Rounds is the number of scheduling periods per run (the paper's
	// tracks span 30 s = 30 rounds; size sweeps measure stable phase).
	Rounds int
	// StableTail is how many final rounds define the stable phase average.
	StableTail int
	// Sizes is the network-size sweep (Figures 7, 8, 9, 11).
	Sizes []int
	// Par is how many workers of the sweep's sim.Pool run points
	// concurrently (0 = GOMAXPROCS, 1 = sequential). Each point is an
	// independent simulation seeded by its own configuration and results
	// are committed in point order, so every table is byte-identical at
	// any setting.
	Par  int
	runs *[]ran
}

// DefaultOptions mirrors the paper's settings.
func DefaultOptions() Options {
	base := core.DefaultConfig(0)
	base.Churn = churn.DefaultConfig()
	return Options{
		Config:     base,
		Rounds:     40,
		StableTail: 10,
		Sizes:      []int{100, 500, 1000, 2000, 4000, 8000},
		Par:        1,
		runs:       new([]ran),
	}
}

// ConfigFor is the configuration of one run: the base with its population
// and system set, in the dynamic environment the base describes or, for a
// static run, with no churn at all.
func (o Options) ConfigFor(n int, profile core.Profile, dynamic bool) core.Config {
	cfg := o.Config
	cfg.Nodes = n
	cfg.Profile = profile
	if !dynamic {
		cfg.Churn = churn.Config{}
	}
	return cfg
}

// RunResult is one simulated system execution.
type RunResult struct {
	Profile    string
	Nodes      int
	Dynamic    bool
	Continuity metrics.Series
	// ContinuityWarm excludes nodes in their first two rounds of
	// post-join catch-up — the joiner ramp-up drag the plain metric
	// charges against the protocol.
	ContinuityWarm metrics.Series
	Control        metrics.Series
	Prefetch       metrics.Series
	// Stable* are the tail means the paper quotes.
	StableContinuity     float64
	StableContinuityWarm float64
	StableControl        float64
	StablePrefetch       float64
	// StableAtRound is when the continuity settles (-1 if never).
	StableAtRound int
	Totals        metrics.RoundSample
}

// Run builds cfg's world and steps it for the given number of scheduling
// periods, then collapses its metrics over the final stableTail rounds.
// The context is checked at every round boundary: when it is cancelled the
// run stops after the round in flight and returns the rounds that did
// complete — a bit-identical prefix of the uninterrupted run — alongside
// the context's error. onRound, when non-nil, is called after every
// completed round with that round's sample, synchronously on the
// simulation goroutine; it cannot affect the results.
func Run(ctx context.Context, cfg core.Config, rounds, stableTail int, onRound func(metrics.RoundSample)) (RunResult, error) {
	if rounds <= 0 {
		return RunResult{}, fmt.Errorf("experiment: non-positive round count %d", rounds)
	}
	w, err := core.NewWorld(cfg)
	if err != nil {
		return RunResult{}, err
	}
	engine := sim.NewEngine(w, cfg.Tau)
	col := w.Collector()
	for r := 0; r < rounds; r++ {
		if err = ctx.Err(); err != nil {
			break
		}
		engine.Run(1)
		if onRound != nil {
			onRound(col.Samples()[r])
		}
	}
	cont := col.ContinuitySeries()
	warm := col.ContinuityWarmSeries()
	ctl := col.ControlOverheadSeries()
	pf := col.PrefetchOverheadSeries()
	return RunResult{
		Profile:              cfg.Profile.Name,
		Nodes:                cfg.Nodes,
		Dynamic:              cfg.Churn.Enabled(),
		Continuity:           cont,
		ContinuityWarm:       warm,
		Control:              ctl,
		Prefetch:             pf,
		StableContinuity:     cont.TailMean(stableTail),
		StableContinuityWarm: warm.TailMean(stableTail),
		StableControl:        ctl.TailMean(stableTail),
		StablePrefetch:       pf.TailMean(stableTail),
		StableAtRound:        cont.StableRound(stableTail, 0.03),
		Totals:               col.Totals(),
	}, err
}
