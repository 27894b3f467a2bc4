package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"continustreaming/internal/experiment"
	"continustreaming/internal/metrics"
)

// sweepRun is one pass over experiment drivers: the rendered tables'
// fingerprint, per-driver seconds, and the figures the metrics read.
type sweepRun struct {
	fingerprint uint64
	driverS     map[string]float64
	wallS, cpuS float64 // sums over the drivers
	points      int
	simRuns     int // simulated worlds executed
	table1      experiment.Table1Result
	fig9        experiment.ControlSweepResult
	fig11       experiment.PrefetchSweepResult
}

// sweepDriver adapts one experiment runner: it returns the rendered table,
// how many sweep points it produced and how many worlds it simulated.
type sweepDriver struct {
	name string
	run  func(o experiment.Options, sr *sweepRun) (*metrics.Table, int, int, error)
}

// sweepDrivers are the paper's evaluation drivers, in run order.
var sweepDrivers = []sweepDriver{
	{"fig3", func(o experiment.Options, _ *sweepRun) (*metrics.Table, int, int, error) {
		r := experiment.RunFigure3(o)
		return r.Table(), len(r.Points), 0, nil
	}},
	{"table1", func(o experiment.Options, sr *sweepRun) (*metrics.Table, int, int, error) {
		r, err := experiment.RunTable1(o)
		sr.table1 = r
		return r.Table(), len(r.Rows), 8, err
	}},
	{"fig5", func(o experiment.Options, _ *sweepRun) (*metrics.Table, int, int, error) {
		r, err := experiment.RunFigure5(o)
		return r.Table(), 2, 2, err
	}},
	{"fig6", func(o experiment.Options, _ *sweepRun) (*metrics.Table, int, int, error) {
		r, err := experiment.RunFigure6(o)
		return r.Table(), 2, 2, err
	}},
	{"fig7", func(o experiment.Options, _ *sweepRun) (*metrics.Table, int, int, error) {
		r, err := experiment.RunFigure7(o)
		return r.Table(), 2 * len(r.Points), 2 * len(r.Points), err
	}},
	{"fig8", func(o experiment.Options, _ *sweepRun) (*metrics.Table, int, int, error) {
		r, err := experiment.RunFigure8(o)
		return r.Table(), 2 * len(r.Points), 2 * len(r.Points), err
	}},
	{"fig9", func(o experiment.Options, sr *sweepRun) (*metrics.Table, int, int, error) {
		r, err := experiment.RunFigure9(o)
		sr.fig9 = r
		return r.Table(), len(r.Points), len(r.Points), err
	}},
	{"fig10", func(o experiment.Options, _ *sweepRun) (*metrics.Table, int, int, error) {
		r, err := experiment.RunFigure10(o)
		return r.Table(), 2, 2, err
	}},
	{"fig11", func(o experiment.Options, sr *sweepRun) (*metrics.Table, int, int, error) {
		r, err := experiment.RunFigure11(o)
		sr.fig11 = r
		return r.Table(), 2 * len(r.Points), 2 * len(r.Points), err
	}},
}

// runDrivers executes the named drivers in order, taking a host-speed
// slice before each (outside the driver's own time). With a tracer it
// records a sweep span with one child per driver; res, when set, counts
// every point as a checked operation (all of a driver's points fail with
// it).
func runDrivers(o experiment.Options, only map[string]bool, host *hostSpeed, res *result, tr *tracer) *sweepRun {
	sr := &sweepRun{driverS: make(map[string]float64)}
	h := fnv.New64a()
	root := tr.begin("sweep", -1, 0)
	for i, d := range sweepDrivers {
		if only != nil && !only[d.name] {
			continue
		}
		host.sample()
		sp := tr.begin("experiment."+d.name, root, i)
		watch := startWatch()
		tbl, points, runs, err := d.run(o, sr)
		wallS, cpuS := watch.stop()
		tr.end(sp)
		sr.driverS[d.name] = wallS
		sr.wallS += wallS
		sr.cpuS += cpuS
		sr.points += points
		sr.simRuns += runs
		if res != nil {
			res.Attempted += int64(max(points, 1))
			if err != nil {
				res.failN(int64(max(points, 1)), "%s: %v", d.name, err)
			}
		}
		if err == nil {
			fmt.Fprint(h, tbl.Render())
		}
	}
	tr.end(root)
	sr.fingerprint = h.Sum64()
	return sr
}

// runSweep is paper_sweep_1k: every table and figure of the paper's
// evaluation with the paper's options at sizes up to 1000 (the 4000- and
// 8000-node points of the full sweep would triple the batch; the two sim_*
// workloads price large worlds). Set-up is a warm-up pass of the four
// size-sweep drivers at small sizes, repeated; its passes must agree.
func runSweep(rc *runCtx) (*result, error) {
	res := newResult()
	opts := experiment.DefaultOptions()
	opts.Sizes = []int{100, 500, 1000}
	opts.Seed = rc.seed
	opts.Workers = rc.workers
	opts.Par = rc.workers
	warm := opts
	warm.Sizes, warm.Rounds, warm.StableTail = []int{100, 500}, 10, 3
	warmPasses := 3
	var only map[string]bool // nil runs every driver
	if rc.smoke {
		// Playback starts at round 7, so ten rounds is the shortest sweep
		// with a continuity to check; the drivers pinned at n=1000 other
		// than Table 1 are left out to keep the miniature short.
		opts.Sizes, opts.Rounds, opts.StableTail = []int{60}, 10, 2
		warm.Sizes, warm.Rounds, warm.StableTail = []int{60}, 3, 1
		warmPasses = 2
		only = map[string]bool{"table1": true, "fig7": true, "fig8": true, "fig9": true, "fig11": true}
	}
	rc.logf("config sizes=%v rounds=%d tail=%d par=%d workers=%d (closed batch)",
		opts.Sizes, opts.Rounds, opts.StableTail, opts.Par, opts.Workers)

	warmOnly := map[string]bool{"fig7": true, "fig8": true, "fig9": true, "fig11": true}
	var setups []float64
	var warmFP uint64
	for i := 0; i < warmPasses; i++ {
		start := time.Now()
		// On the traced pass the last warm-up records spans too, so the
		// agreement check doubles as "tracing changes no table".
		var tr *tracer
		if i == warmPasses-1 {
			tr = rc.tr
		}
		sr := runDrivers(warm, warmOnly, rc.host, nil, tr)
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			warmFP = sr.fingerprint
		}
		res.check(sr.fingerprint == warmFP, "warm-up pass %d rendered different tables (%016x vs %016x)", i, sr.fingerprint, warmFP)
	}

	runtime.GC() // the warm-up passes' worlds are garbage by now
	sr := runDrivers(opts, only, rc.host, res, rc.tr)
	wallS, cpuS := sr.wallS, sr.cpuS
	res.Fingerprint = fmt.Sprintf("%016x", sr.fingerprint)

	// Table 1's theory rows are closed forms: λ=15 and λ=14.
	theory := [][2]float64{{0.8815, 0.9990}, {0.8243, 0.9975}}
	rows := sr.table1.Rows
	contSum, simRows := 0.0, 0
	for i, row := range rows {
		if i < len(theory) {
			ok := round4(row.PCOld) == theory[i][0] && round4(row.PCNew) == theory[i][1]
			res.check(ok, "table1 %s: PC_old=%.4f PC_new=%.4f, want %.4f/%.4f", row.Environment, row.PCOld, row.PCNew, theory[i][0], theory[i][1])
			continue
		}
		res.check(row.PCNew > 0 && row.PCNew <= 1 && row.PCOld >= 0 && row.PCOld <= 1,
			"table1 %s: continuity outside (0,1]: %+v", row.Environment, row)
		contSum += row.PCNew
		simRows++
	}
	res.check(len(rows) == len(theory)+4, "table1 has %d rows, want %d", len(rows), len(theory)+4)

	var control, prefetch []float64
	for _, p := range sr.fig9.Points {
		if p.M == 5 {
			control = append(control, p.Overhead)
		}
	}
	for _, p := range sr.fig11.Points {
		prefetch = append(prefetch, p.Dynamic)
	}

	m := res.Metrics
	m["setup_s"] = median(setups)
	m["wall_s"] = wallS
	m["cpu_s"] = cpuS
	m["round_ms"] = wallS * 1e3 / float64(sr.simRuns*opts.Rounds)
	m["continuity"] = contSum / float64(max(simRows, 1))
	m["overhead_ratio"] = mean(control) + mean(prefetch)
	res.cpuBound = []string{"setup_s", "wall_s", "cpu_s", "round_ms"}
	rc.logf("sweep points=%d simulated worlds=%d rounds each=%d (round_ms is wall per simulated round)",
		sr.points, sr.simRuns, opts.Rounds)
	if rc.traced() {
		for _, d := range sweepDrivers {
			m["experiment."+d.name+"_s"] = sr.driverS[d.name]
		}
		m["experiment.points"] = float64(sr.points)
		m["experiment.par_efficiency"] = cpuS / (wallS * float64(opts.Par))
	}
	return res, nil
}

func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }
