// Command continusim regenerates the paper's tables and figures from the
// simulation. Select an experiment with -experiment; "all" runs the whole
// evaluation section, simulating a point several figures share once, and
// -experiment X alone prints the same bytes as X's part of "all".
// -scenario instead runs one named public-API
// scenario (the same constructors library callers use), with an optional
// population suffix or -nodes override — the path CI's scale smoke and
// ad-hoc big runs go through. Every protocol flag is bound to the field of
// the configuration the worlds are built from, so -help shows the real
// defaults and a flag's value is the value used (-pushhops 0 is pull-only).
// A flag the selected mode never reads (-sizes under -scenario, -nodes
// under -experiment, -churntrace under a static scenario) is an error, not
// a silent run at the defaults.
//
// Usage:
//
//	continusim -experiment fig5 [-rounds 40] [-seed 1] [-sizes 100,500,1000]
//	continusim -experiment all -csv
//	continusim -scenario flashcrowd100k -rounds 12
//	continusim -scenario hetdynamic -nodes 8000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"time"

	"continustreaming"
	"continustreaming/internal/churn"
	"continustreaming/internal/experiment"
	"continustreaming/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "continusim: %v\n", err)
		os.Exit(1)
	}
}

// invocation is a parsed command line. opts.Config is the configuration
// the flags were bound to: the base of every sweep point under
// -experiment, the scenario's complete configuration under -scenario.
type invocation struct {
	opts       experiment.Options
	experiment string
	scenario   string
	csv        bool
	phaseprof  bool
}

// parse binds the flags to the default options' fields, parses args and
// applies the two rules a plain binding cannot express: the mode checks,
// and -delay alone clearing the calibrated segment-granular delay that
// would otherwise shadow it.
func parse(args []string, stderr io.Writer) (invocation, error) {
	inv := invocation{opts: experiment.DefaultOptions()}
	o := &inv.opts
	fs := flag.NewFlagSet("continusim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&inv.experiment, "experiment", "all", "experiment to run: "+strings.Join(experimentNames(), "|")+"|all")
	fs.StringVar(&inv.scenario, "scenario", "", "named scenario instead of a paper experiment: "+strings.Join(continustreaming.Scenarios(), "|")+", with an optional population suffix (flashcrowd100k, hetdynamic8000)")
	nodes := fs.Int("nodes", 0, "population for -scenario (a suffix on the scenario name wins; 0 = scenario default)")
	fs.IntVar(&o.Rounds, "rounds", o.Rounds, "scheduling periods per run")
	fs.IntVar(&o.StableTail, "tail", o.StableTail, "rounds in the stable-phase average")
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "master random seed")
	fs.Func("sizes", "comma-separated `list` of network sizes for the sweeps (default the paper's 100,500,1000,2000,4000,8000)", func(list string) error {
		o.Sizes = nil
		for _, part := range strings.Split(list, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 2 {
				return fmt.Errorf("bad entry %q", part)
			}
			o.Sizes = append(o.Sizes, n)
		}
		return nil
	})
	fs.IntVar(&o.PlaybackDelayRounds, "delay", o.PlaybackDelayRounds, "playback delay D in rounds (set alone, it replaces the segment-granular default)")
	fs.IntVar(&o.PlaybackDelaySegments, "delayseg", o.PlaybackDelaySegments, "playback delay in segments (wins over -delay; 0 = -delay × stream rate)")
	fs.IntVar(&o.Workers, "workers", o.Workers, "simulation worker pool width (0 = GOMAXPROCS; results are identical at any setting)")
	fs.IntVar(&o.Par, "par", o.Par, "concurrent sweep points per experiment (0 = GOMAXPROCS, 1 = sequential; tables are byte-identical at any setting)")
	fs.BoolVar(&inv.phaseprof, "phaseprof", false, "print a per-phase wall-clock profile after a -scenario run")
	fs.IntVar(&o.PushHops, "pushhops", o.PushHops, "dissemination-engine push depth H (0 = pull-only)")
	fs.IntVar(&o.QueueFactor, "queuefactor", o.QueueFactor, "supplier carry-queue bound as a multiple of outbound rate (0 = drop-and-retry)")
	fs.BoolVar(&inv.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.Func("churntrace", "churn trace `file` (tracegen -churn output) driving the dynamic runs instead of uniform 5%/round", func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		o.Churn.Trace, err = churn.ReadTrace(f)
		return err
	})
	if err := fs.Parse(args); err != nil {
		return inv, err
	}
	static := false
	if inv.scenario != "" {
		sc, err := continustreaming.ScenarioByName(inv.scenario, *nodes)
		if err != nil {
			return inv, err
		}
		// A scenario is a population, a system and an environment; every
		// other field is the flag-bound base's, as for a sweep point.
		static = !sc.Churn.Enabled()
		o.Config = o.ConfigFor(sc.Nodes, sc.Profile, !static)
		o.Bandwidth.Homogeneous = sc.Bandwidth.Homogeneous
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["delay"] && !set["delayseg"] {
		o.PlaybackDelaySegments = 0
	}
	return inv, checkModeFlags(fs, inv.scenario != "", static)
}

// Flags only one of the two modes reads. Setting one in the other mode
// would run, silently, at that mode's defaults.
var (
	experimentOnlyFlags = []string{"experiment", "sizes", "par"}
	scenarioOnlyFlags   = []string{"nodes", "phaseprof"}
)

// checkModeFlags returns an error naming the first flag set on the command
// line whose value the run would not use: one the selected mode never
// reads, or a churn trace under a scenario with fixed membership.
func checkModeFlags(fs *flag.FlagSet, scenarioMode, staticScenario bool) error {
	ignored, mode := scenarioOnlyFlags, "-experiment"
	if scenarioMode {
		ignored, mode = experimentOnlyFlags, "-scenario"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case slices.Contains(ignored, f.Name):
			err = fmt.Errorf("-%s does nothing under %s", f.Name, mode)
		case f.Name == "churntrace" && staticScenario:
			err = errors.New("-churntrace does nothing under a static scenario (membership is fixed)")
		}
	})
	return err
}

// experiments is the paper's evaluation section, in order — what "all"
// runs.
var experiments = []struct {
	name string
	run  func(experiment.Options) (*metrics.Table, error)
}{
	{"fig3", func(o experiment.Options) (*metrics.Table, error) { return experiment.RunFigure3(o).Table(), nil }},
	{"table1", tabled(experiment.RunTable1)},
	{"fig5", tabled(experiment.RunFigure5)},
	{"fig6", tabled(experiment.RunFigure6)},
	{"fig7", tabled(experiment.RunFigure7)},
	{"fig8", tabled(experiment.RunFigure8)},
	{"fig9", tabled(experiment.RunFigure9)},
	{"fig10", tabled(experiment.RunFigure10)},
	{"fig11", tabled(experiment.RunFigure11)},
}

// tabled adapts an experiment runner to the table it renders.
func tabled[R interface{ Table() *metrics.Table }](run func(experiment.Options) (R, error)) func(experiment.Options) (*metrics.Table, error) {
	return func(o experiment.Options) (*metrics.Table, error) {
		r, err := run(o)
		return r.Table(), err
	}
}

// experimentNames lists the experiments' names in order.
func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// run is the whole command: args in, tables on stdout.
func run(args []string, stdout io.Writer) error {
	inv, err := parse(args, os.Stderr)
	if err != nil {
		return err
	}
	if inv.scenario != "" {
		return runScenario(inv, stdout)
	}
	found := false
	for _, e := range experiments {
		if inv.experiment != "all" && e.name != inv.experiment {
			continue
		}
		found = true
		tbl, err := e.run(inv.opts)
		if err != nil {
			return fmt.Errorf("%s: %v", e.name, err)
		}
		render(stdout, tbl, inv.csv)
	}
	if !found {
		return fmt.Errorf("unknown experiment %q (want one of %s, all)", inv.experiment, strings.Join(experimentNames(), ", "))
	}
	return nil
}

func render(w io.Writer, tbl *metrics.Table, csv bool) {
	if csv {
		fmt.Fprint(w, tbl.RenderCSV())
	} else {
		fmt.Fprintln(w, tbl.Render())
	}
}

// runScenario executes one named public-API scenario through
// experiment.Run, the loop behind the public RunContext: rows accumulate
// via the per-round hook as rounds complete, and an interrupt (^C) stops
// the run at the next round boundary, still printing the rounds that
// finished — the cancellation contract the public API promises,
// exercised end to end.
func runScenario(inv invocation, stdout io.Writer) error {
	cfg, tail := inv.opts.Config, inv.opts.StableTail
	tbl := metrics.NewTable(
		fmt.Sprintf("Scenario %s (%s, n=%d)", inv.scenario, cfg.Profile.Name, cfg.Nodes),
		"t(s)", "continuity", "warm", "control", "prefetch")
	var prof *phaseProfiler
	if inv.phaseprof {
		prof = newPhaseProfiler()
		cfg.PhaseProbe = prof.probe
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := experiment.Run(ctx, cfg, inv.opts.Rounds, tail, func(s metrics.RoundSample) {
		tbl.AddRow(s.Round, s.Continuity(), s.ContinuityWarm(), s.ControlOverhead(), s.PrefetchOverhead())
	})
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return fmt.Errorf("scenario %s: %v", inv.scenario, err)
	}
	render(stdout, tbl, inv.csv)
	done := res.Continuity.Len()
	if interrupted {
		fmt.Fprintf(stdout, "interrupted after %d/%d rounds\n", done, inv.opts.Rounds)
	}
	if tail > 0 && done > 0 {
		fmt.Fprintf(stdout, "stable(last %d): continuity=%.4f warm=%.4f control=%.4f prefetch=%.4f\n",
			min(tail, done), res.StableContinuity, res.StableContinuityWarm, res.StableControl, res.StablePrefetch)
	}
	if kb := peakRSSKB(); kb > 0 {
		fmt.Fprintf(stdout, "peak_rss_kb=%d\n", kb)
	}
	if prof != nil {
		render(stdout, prof.table(), inv.csv)
	}
	return nil
}

// phaseProfiler turns the simulation's PhaseProbe boundary calls into a
// per-phase wall-clock breakdown. The core never reads host time (the
// determinism contract bans it under internal/), so the timestamps live
// here: each probe call charges the time since the previous call to the
// phase that was running, and the "" end-of-round marker closes the
// round's last phase.
type phaseProfiler struct {
	last   time.Time
	cur    string
	order  []string // phases in first-seen order
	total  map[string]time.Duration
	rounds int
}

func newPhaseProfiler() *phaseProfiler {
	return &phaseProfiler{total: make(map[string]time.Duration)}
}

func (p *phaseProfiler) probe(phase string) {
	now := time.Now()
	if p.cur != "" {
		if _, seen := p.total[p.cur]; !seen {
			p.order = append(p.order, p.cur)
		}
		p.total[p.cur] += now.Sub(p.last)
	}
	if phase == "" {
		p.rounds++
	}
	p.cur, p.last = phase, now
}

func (p *phaseProfiler) table() *metrics.Table {
	tbl := metrics.NewTable(
		fmt.Sprintf("Phase wall-clock profile (%d rounds)", p.rounds),
		"phase", "total(ms)", "ns/round", "share(%)")
	var sum time.Duration
	for _, d := range p.total {
		sum += d
	}
	if sum <= 0 {
		sum = 1
	}
	rounds := p.rounds
	if rounds < 1 {
		rounds = 1
	}
	for _, name := range p.order {
		d := p.total[name]
		tbl.AddRow(name, float64(d.Nanoseconds())/1e6,
			d.Nanoseconds()/int64(rounds),
			100*float64(d)/float64(sum))
	}
	tbl.AddRow("total", float64(sum.Nanoseconds())/1e6,
		sum.Nanoseconds()/int64(rounds), 100.0)
	return tbl
}

// peakRSSKB reads the process's resident-set high-water mark from
// /proc/self/status (Linux only; 0 elsewhere), so the CI scale smoke can
// gate memory regressions on the scenario run itself instead of wrapping
// it in an external sampler.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
					return kb
				}
			}
		}
	}
	return 0
}
