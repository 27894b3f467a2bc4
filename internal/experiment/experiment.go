// Package experiment contains one runner per table and figure in the
// paper's evaluation (§5). Each runner builds worlds from internal/core,
// executes them, and returns both structured results and a rendered
// paper-style table. The top-level benchmarks and cmd/continusim are thin
// wrappers over these runners.
package experiment

import (
	"continustreaming/internal/churn"
	"continustreaming/internal/core"
	"continustreaming/internal/metrics"
	"continustreaming/internal/sim"
)

// Options tunes how heavy the experiment sweep is. Benchmarks use reduced
// sizes to stay fast; cmd/continusim defaults to the paper's full sweep.
type Options struct {
	// Rounds is the number of scheduling periods per run (the paper's
	// tracks span 30 s = 30 rounds; size sweeps measure stable phase).
	Rounds int
	// StableTail is how many final rounds define the stable phase average.
	StableTail int
	// Sizes overrides the network-size sweep (Figures 7, 8, 9, 11).
	Sizes []int
	// Seed drives all randomness.
	Seed uint64
	// Delay overrides the playback delay D in rounds (0 keeps the
	// default); DelaySegments overrides at segment granularity and wins
	// over Delay.
	Delay         int
	DelaySegments int
	// Workers caps the simulation worker pool (0 = GOMAXPROCS). Purely a
	// throughput knob: results are bit-identical at any setting.
	Workers int
	// Par caps how many sweep points run concurrently (0 = GOMAXPROCS,
	// 1 = sequential). Each point is an independent simulation seeded by
	// its own configuration and results are committed in point order, so
	// every table is byte-identical at any setting. Memory-heavy points
	// occupy proportionally more of the cap (see memWeight).
	Par int
	// ChurnTrace overrides the uniform 5%/round churn of dynamic runs
	// with a per-round trace-driven schedule (see churn.TraceModel and
	// cmd/tracegen -churn). Static runs ignore it.
	ChurnTrace *churn.TraceModel
	// PushHops overrides the dissemination engine's push depth: 0 keeps
	// the config default, a negative value disables the push phase.
	PushHops int
	// QueueFactor overrides the supplier carry-queue bound: 0 keeps the
	// config default, a negative value disables queueing.
	QueueFactor int
}

// DefaultOptions mirrors the paper's settings.
func DefaultOptions() Options {
	return Options{
		Rounds:     40,
		StableTail: 10,
		Sizes:      []int{100, 500, 1000, 2000, 4000, 8000},
		Seed:       1,
	}
}

// normalized fills zero fields from the defaults.
func (o Options) normalized() Options {
	d := DefaultOptions()
	if o.Rounds <= 0 {
		o.Rounds = d.Rounds
	}
	if o.StableTail <= 0 {
		o.StableTail = d.StableTail
	}
	if o.StableTail > o.Rounds {
		o.StableTail = o.Rounds
	}
	if len(o.Sizes) == 0 {
		o.Sizes = d.Sizes
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// RunResult is one simulated system execution.
type RunResult struct {
	Profile    string
	Nodes      int
	Dynamic    bool
	Continuity metrics.Series
	// ContinuityWarm excludes nodes in their first WarmupRounds of
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

// runWorld executes one configuration and collapses its metrics.
func runWorld(cfg core.Config, rounds, stableTail int) (RunResult, error) {
	w, err := core.NewWorld(cfg)
	if err != nil {
		return RunResult{}, err
	}
	engine := sim.NewEngine(w, cfg.Tau)
	engine.Run(rounds)
	col := w.Collector()
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
	}, nil
}

// baseConfig assembles the shared paper configuration for a run.
func baseConfig(n int, profile core.Profile, dynamic bool, o Options) core.Config {
	cfg := core.DefaultConfig(n)
	cfg.Profile = profile
	cfg.Seed = o.Seed
	cfg.Workers = o.Workers
	// One delay override: segments win over rounds, and a rounds
	// override clears the calibrated segment-granular default that would
	// otherwise shadow it.
	if o.DelaySegments > 0 {
		cfg.PlaybackDelaySegments = o.DelaySegments
	} else if o.Delay > 0 {
		cfg.PlaybackDelayRounds, cfg.PlaybackDelaySegments = o.Delay, 0
	}
	core.ApplyKnobOverride(&cfg.PushHops, o.PushHops)
	core.ApplyKnobOverride(&cfg.QueueFactor, o.QueueFactor)
	if dynamic {
		cfg.Churn = churn.DefaultConfig()
		cfg.Churn.Trace = o.ChurnTrace
	}
	return cfg
}
