// Command continusim regenerates the paper's tables and figures from the
// simulation. Select an experiment with -experiment; "all" runs the whole
// evaluation section. -scenario instead runs one named public-API
// scenario (the same constructors library callers use), with an optional
// population suffix or -nodes override — the path CI's scale smoke and
// ad-hoc big runs go through. A flag the selected mode never reads (-sizes
// under -scenario, -nodes under -experiment) is an error, not a silent run
// at the defaults; so is -seed 0, which both modes would run as seed 1.
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
	var (
		which    = flag.String("experiment", "all", "experiment to run: fig3|table1|fig5|fig6|fig7|fig8|fig9|fig10|fig11|flashcrowd10k|all (all = the paper's figures; flashcrowd10k runs only on request)")
		scenario = flag.String("scenario", "", "named scenario instead of a paper experiment: "+strings.Join(continustreaming.Scenarios(), "|")+", with an optional population suffix (flashcrowd100k, hetdynamic8000)")
		nodes    = flag.Int("nodes", 0, "population for -scenario (a suffix on the scenario name wins; 0 = scenario default)")
		rounds   = flag.Int("rounds", 40, "scheduling periods per run")
		tail     = flag.Int("tail", 10, "rounds in the stable-phase average")
		seed     = flag.Uint64("seed", 1, "master random seed")
		sizes    = flag.String("sizes", "", "comma-separated network sizes for the sweeps (default paper sweep)")
		delay    = flag.Int("delay", 0, "playback delay D in rounds (0 = default)")
		delaySeg = flag.Int("delayseg", 0, "playback delay in segments (overrides -delay)")
		workers  = flag.Int("workers", 0, "simulation worker pool width (0 = GOMAXPROCS; results are identical at any setting)")
		par      = flag.Int("par", 1, "concurrent sweep points per experiment (0 = GOMAXPROCS, 1 = sequential; tables are byte-identical at any setting)")
		phasepro = flag.Bool("phaseprof", false, "print a per-phase wall-clock profile after a -scenario run")
		pushHops = flag.Int("pushhops", 0, "dissemination-engine push depth H (0 = default 2, negative disables the push phase)")
		queueFac = flag.Int("queuefactor", 0, "supplier carry-queue bound as a multiple of outbound rate (0 = default 2, negative disables queueing)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		churnTr  = flag.String("churntrace", "", "churn trace file (tracegen -churn output) driving the dynamic runs instead of uniform 5%/round")
	)
	flag.Parse()
	if err := checkModeFlags(flag.CommandLine, *scenario != ""); err != nil {
		fatalf("%v", err)
	}

	opts := experiment.Options{Rounds: *rounds, StableTail: *tail, Seed: *seed, Delay: *delay, DelaySegments: *delaySeg, Workers: *workers, Par: *par, PushHops: *pushHops, QueueFactor: *queueFac}
	if *churnTr != "" {
		f, err := os.Open(*churnTr)
		if err != nil {
			fatalf("churn trace: %v", err)
		}
		trace, err := churn.ReadTrace(f)
		f.Close()
		if err != nil {
			fatalf("churn trace %s: %v", *churnTr, err)
		}
		opts.ChurnTrace = trace
	}
	if *sizes != "" {
		for _, part := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 2 {
				fatalf("bad -sizes entry %q", part)
			}
			opts.Sizes = append(opts.Sizes, n)
		}
	}

	if *scenario != "" {
		cfg, err := continustreaming.ScenarioByName(*scenario, *nodes)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Seed = *seed
		cfg.Workers = *workers
		cfg.PushHops = *pushHops
		cfg.QueueFactor = *queueFac
		cfg.Churn = opts.ChurnTrace
		runScenario(*scenario, cfg, *rounds, *tail, *csv, *phasepro)
		return
	}
	run := func(name string, fn func() (*metrics.Table, error)) {
		tbl, err := fn()
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		if *csv {
			fmt.Print(tbl.RenderCSV())
		} else {
			fmt.Println(tbl.Render())
		}
	}

	experiments := map[string]func() (*metrics.Table, error){
		"fig3": func() (*metrics.Table, error) {
			r := experiment.RunFigure3(opts)
			return r.Table(), nil
		},
		"table1": func() (*metrics.Table, error) {
			r, err := experiment.RunTable1(opts)
			return r.Table(), err
		},
		"fig5": func() (*metrics.Table, error) {
			r, err := experiment.RunFigure5(opts)
			return r.Table(), err
		},
		"fig6": func() (*metrics.Table, error) {
			r, err := experiment.RunFigure6(opts)
			return r.Table(), err
		},
		"fig7": func() (*metrics.Table, error) {
			r, err := experiment.RunFigure7(opts)
			return r.Table(), err
		},
		"fig8": func() (*metrics.Table, error) {
			r, err := experiment.RunFigure8(opts)
			return r.Table(), err
		},
		"fig9": func() (*metrics.Table, error) {
			r, err := experiment.RunFigure9(opts)
			return r.Table(), err
		},
		"fig10": func() (*metrics.Table, error) {
			r, err := experiment.RunFigure10(opts)
			return r.Table(), err
		},
		"fig11": func() (*metrics.Table, error) {
			r, err := experiment.RunFigure11(opts)
			return r.Table(), err
		},
		"flashcrowd10k": func() (*metrics.Table, error) {
			r, err := experiment.RunFlashCrowd10k(opts)
			return r.Table(), err
		},
	}

	// "all" reproduces the paper's evaluation; the flash-crowd scale-out
	// scenario is heavy and runs only when named explicitly.
	order := []string{"fig3", "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	if *which == "all" {
		for _, name := range order {
			run(name, experiments[name])
		}
		return
	}
	fn, ok := experiments[*which]
	if !ok {
		fatalf("unknown experiment %q (want one of %s, flashcrowd10k, all)", *which, strings.Join(order, ", "))
	}
	run(*which, fn)
}

// Flags only one of the two modes reads. Setting one in the other mode
// would run, silently, at that mode's defaults.
var (
	experimentOnlyFlags = []string{"experiment", "sizes", "delay", "delayseg", "par"}
	scenarioOnlyFlags   = []string{"nodes", "phaseprof"}
)

// checkModeFlags returns an error naming the first flag set on the command
// line whose value the run would not use: one the selected mode never
// reads, or -seed 0, which the public Config and experiment.Options both
// read as "unset" and replace with 1.
func checkModeFlags(fs *flag.FlagSet, scenarioMode bool) error {
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
		case f.Name == "seed" && f.Value.String() == "0":
			err = errors.New("-seed 0 would run as seed 1; seeds start at 1")
		}
	})
	return err
}

// runScenario executes one named public-API scenario through
// RunContext: rows accumulate via the OnRound hook as rounds complete,
// and an interrupt (^C) stops the run at the next round boundary, still
// printing the rounds that finished — the cancellation contract the
// public API promises, exercised end to end.
func runScenario(name string, cfg continustreaming.Config, rounds, tail int, csv, phaseprof bool) {
	tbl := metrics.NewTable(
		fmt.Sprintf("Scenario %s (%s, n=%d)", name, cfg.System, cfg.Nodes),
		"t(s)", "continuity", "warm", "control", "prefetch")
	cfg.OnRound = func(round int, s continustreaming.Snapshot) {
		tbl.AddRow(round, s.Continuity, s.ContinuityWarm, s.ControlOverhead, s.PrefetchOverhead)
	}
	var prof *phaseProfiler
	if phaseprof {
		prof = newPhaseProfiler()
		cfg.PhaseProbe = prof.probe
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := continustreaming.RunContext(ctx, cfg, rounds)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fatalf("scenario %s: %v", name, err)
	}
	if csv {
		fmt.Print(tbl.RenderCSV())
	} else {
		fmt.Println(tbl.Render())
	}
	if done := res.Continuity.Len(); interrupted {
		fmt.Printf("interrupted after %d/%d rounds\n", done, rounds)
	}
	if tail > 0 {
		if n := res.Continuity.Len(); n > 0 {
			if tail > n {
				tail = n
			}
			fmt.Printf("stable(last %d): continuity=%.4f warm=%.4f control=%.4f prefetch=%.4f\n",
				tail, res.Continuity.TailMean(tail), res.ContinuityWarm.TailMean(tail),
				res.ControlOverhead.TailMean(tail), res.PrefetchOverhead.TailMean(tail))
		}
	}
	if kb := peakRSSKB(); kb > 0 {
		fmt.Printf("peak_rss_kb=%d\n", kb)
	}
	if prof != nil {
		ptbl := prof.table()
		if csv {
			fmt.Print(ptbl.RenderCSV())
		} else {
			fmt.Println(ptbl.Render())
		}
	}
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "continusim: "+format+"\n", args...)
	os.Exit(1)
}
