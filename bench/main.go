// Command bench is the repository's benchmark: five workloads over the
// round simulator (internal/core, internal/experiment) and the livenet
// (internal/livenet), seven end-to-end metrics per workload, and a traced
// pass that prices every layer. It measures from outside — by timing calls
// into exported functions and through the name-only core.Config.PhaseProbe
// hook — so the measured packages carry no benchmark code. See README.md.
//
//	bench/run.sh --workload sim_static_8k --seed 1 --seconds 10 --trace 0
//	bench/run.sh -runs 3 -out bench/out/a.json      # every workload, 3 seeds
//	bench/run.sh -trace 1                           # traced pass, span files
//	bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// runCtx is what one workload run is given.
type runCtx struct {
	seed    uint64
	seconds int
	smoke   bool
	workers int
	tr      *tracer // nil on the untraced pass
	host    *hostSpeed
	out     io.Writer
}

func (rc *runCtx) traced() bool { return rc.tr != nil }

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.out, format+"\n", args...)
}

// result is one workload run's outcome: the record line of the output and
// one entry of a result set.
type result struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Scale       string             `json:"scale"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Fingerprint string             `json:"result_fingerprint,omitempty"`
	Network     string             `json:"network,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	// Raw holds the as-timed values of the metrics reported at reference
	// host speed; HostFactor is what they were multiplied by.
	Raw        map[string]float64 `json:"raw,omitempty"`
	HostFactor float64            `json:"host_factor,omitempty"`
	Failures   []string           `json:"failures,omitempty"`

	// cpuBound names the metrics whose time the host's speed sets, not a
	// ticker: the ones reported at reference host speed.
	cpuBound []string
}

func newResult() *result { return &result{Metrics: make(map[string]float64)} }

// check counts one verified operation; a false ok records the failure.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.failN(1, format, args...)
	}
}

// failN records n failed operations under one message.
func (r *result) failN(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// resultSet is what a run over every workload writes and -compare reads.
type resultSet struct {
	Host hostInfo `json:"host"`
	Runs []result `json:"runs"`
}

// repoRoot finds the checkout root from the working directory: the
// directory holding BENCHMARK.json, here or one level up (running from
// inside bench/).
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

func outDir() string { return filepath.Join(repoRoot(), "bench", "out") }

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all (one child process per workload, in sequence)")
		seed     = flag.Uint64("seed", 1, "workload seed: simulator seed, livenet Seed and ShapeSeed")
		seconds  = flag.Int("seconds", 10, "length of one run's measured part on the reference host; sizes the closed batches and the open-loop sessions")
		trace    = flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics, spans in bench/out/trace-<workload>.json")
		scale    = flag.String("scale", "full", "full, or smoke (a seconds-long miniature of every workload, for tests)")
		runs     = flag.Int("runs", 1, "with -workload all: repeat every workload with seeds seed..seed+runs-1")
		out      = flag.String("out", "", "with -workload all: result-set path (default bench/out/results.json)")
		compare  = flag.Bool("compare", false, "compare two result sets: bench -compare A.json B.json")
		spec     = flag.Bool("spec", false, "print the BENCHMARK.json that matches this program's tables and exit")
	)
	flag.Parse()
	if *spec {
		printSpec(os.Stdout)
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare A.json B.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || (*scale != "full" && *scale != "smoke") || *runs < 1 {
		fatalf("bad flags: -seconds >= 1, -trace 0|1, -scale full|smoke, -runs >= 1")
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *scale, *runs, *out))
	}
	wl := findWorkload(*workload)
	if wl == nil {
		fatalf("unknown workload %q", *workload)
	}
	res, err := runOne(os.Stdout, wl, *seed, *seconds, *trace == 1, *scale == "smoke", outDir())
	if err != nil {
		// No result line: the run could not be carried out at all.
		fatalf("%s: %v", wl.Name, err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// printSpec renders the workload and metric tables as BENCHMARK.json, so
// a change to the tables is carried into the file by copying, not by hand.
func printSpec(w io.Writer) {
	type named struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []named  `json:"end_to_end"`
		PerLayer   []named  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, wl := range workloads {
		spec.Workloads = append(spec.Workloads, named{Name: wl.Name, Why: wl.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		spec.EndToEnd = append(spec.EndToEnd, named{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, named{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(w, "%s\n", data)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne executes one workload in this process and prints its report: the
// host and configuration, every metric by name with its unit, the output
// checks, a record line, and — last — the result line. The traced pass
// writes its spans into traceDir.
func runOne(w io.Writer, wl *workloadDef, seed uint64, seconds int, trace, smoke bool, traceDir string) (*result, error) {
	rc := &runCtx{seed: seed, seconds: seconds, smoke: smoke, workers: pinnedWorkers(), out: w}
	var err error
	if rc.host, err = newHostSpeed(rc.workers); err != nil {
		return nil, fmt.Errorf("mapping the host-speed arrays: %w", err)
	}
	rc.host.sample()
	if trace {
		rc.tr = newTracer()
	}
	scale := "full"
	if smoke {
		scale = "smoke"
	}
	host := currentHost()
	rc.logf("bench workload=%s seed=%d seconds=%d trace=%v scale=%s", wl.Name, seed, seconds, trace, scale)
	rc.logf("host nproc=%d GOMAXPROCS=%d workers=%d par=%d cpu=%q go=%s %s/%s",
		host.NProc, host.GOMAXPROCS, host.Workers, host.Par, host.CPUModel, host.GoVersion, host.GOOS, host.GOARCH)

	res, err := wl.run(rc)
	if err != nil {
		return nil, err
	}
	res.Workload, res.Seed, res.Seconds, res.Trace, res.Scale = wl.Name, seed, seconds, trace, scale
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	rc.host.sample()
	res.HostFactor = rc.host.factor()
	res.Raw = make(map[string]float64, len(res.cpuBound))
	for _, name := range res.cpuBound {
		res.Raw[name] = res.Metrics[name]
		res.Metrics[name] *= res.HostFactor
	}
	res.Metrics["host.slice_ms"] = rc.host.sliceMs()
	res.Metrics["host.speed_factor"] = res.HostFactor
	rc.logf("host_speed slice_ms=%.3f (nominal %.1f, %d samples) factor=%.4f: CPU-bound times below are raw × factor",
		rc.host.sliceMs(), nominalSliceMs, len(rc.host.samples), res.HostFactor)
	for _, name := range res.cpuBound {
		rc.logf("raw    %-34s %14.6g", name, res.Raw[name])
	}
	if trace {
		path, err := rc.tr.write(traceDir, wl.Name)
		if err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		rc.logf("trace %d spans -> %s", len(rc.tr.spans), path)
	}

	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type reported struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool                `json:"correct"`
		Attempted int64               `json:"attempted"`
		Failed    int64               `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{Metrics: make(map[string]reported, len(defs))}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && !trace {
			res.failN(1, "end-to-end metric %s was not measured", d.Name)
		}
		final.Metrics[d.Name] = reported{Value: v, Unit: d.Unit}
		rc.logf("metric %-34s %14.6g %s", d.Name, v, d.Unit)
	}
	if res.Attempted < 1 {
		res.failN(1, "no operation was checked")
		res.Attempted = 1
	}
	res.Correct = res.Failed == 0
	if res.Fingerprint != "" {
		rc.logf("result_fingerprint %s", res.Fingerprint)
	}
	if res.Network != "" {
		rc.logf("network %s", res.Network)
	}
	rc.logf("ops attempted=%d failed=%d", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		rc.logf("CHECK FAILED: %s", f)
	}
	final.Correct, final.Attempted, final.Failed = res.Correct, res.Attempted, res.Failed
	record, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	last, err := json.Marshal(final)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "record %s\n%s\n", record, last)
	return res, nil
}

// runAll runs every workload, each in a child process of its own and never
// two at once, so peak RSS and CPU time are per workload and no workload
// inherits another's heap. It writes the collected records as a result set.
func runAll(seed uint64, seconds, trace int, scale string, runs int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("locating own binary: %v", err)
	}
	set := resultSet{Host: currentHost()}
	status := 0
	for r := 0; r < runs; r++ {
		for _, wl := range workloads {
			cmd := exec.Command(exe,
				"-workload", wl.Name, "-seed", fmt.Sprint(seed+uint64(r)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-scale", scale)
			cmd.Stderr = os.Stderr
			pipe, err := cmd.StdoutPipe()
			if err != nil {
				fatalf("%v", err)
			}
			if err := cmd.Start(); err != nil {
				fatalf("starting %s: %v", wl.Name, err)
			}
			sc := bufio.NewScanner(pipe)
			sc.Buffer(make([]byte, 1<<20), 1<<24)
			for sc.Scan() {
				line := sc.Text()
				if rec, ok := strings.CutPrefix(line, "record "); ok {
					var res result
					if err := json.Unmarshal([]byte(rec), &res); err == nil {
						set.Runs = append(set.Runs, res)
					}
					continue
				}
				fmt.Println(line)
			}
			if err := cmd.Wait(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (seed %d): %v\n", wl.Name, seed+uint64(r), err)
				status = 1
			}
			fmt.Println()
		}
	}
	if out == "" {
		out = filepath.Join(outDir(), "results.json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		fatalf("%v", err)
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("result set: %d runs -> %s\n", len(set.Runs), out)
	printSummary(os.Stdout, set)
	return status
}

// printSummary prints each workload's end-to-end medians over the set's
// runs, with the quartile spread where at least two runs exist.
func printSummary(w io.Writer, set resultSet) {
	by := groupRuns(set)
	for _, wl := range workloads {
		runs := by[wl.Name]
		if len(runs) == 0 || runs[0].Trace {
			continue
		}
		fmt.Fprintf(w, "%s (%d runs)\n", wl.Name, len(runs))
		for _, d := range endToEnd {
			vals := metricValues(runs, d.Name)
			line := fmt.Sprintf("  %-16s median %12.6g %-8s", d.Name, median(vals), d.Unit)
			if sp, ok := quartileSpread(vals); ok {
				line += fmt.Sprintf(" spread %5.1f%% (bound %.0f%%)", sp*100, d.Bound*100)
			}
			fmt.Fprintln(w, line)
		}
	}
}

func groupRuns(set resultSet) map[string][]result {
	by := make(map[string][]result)
	for _, r := range set.Runs {
		by[r.Workload] = append(by[r.Workload], r)
	}
	for _, runs := range by {
		sort.Slice(runs, func(i, j int) bool { return runs[i].Seed < runs[j].Seed })
	}
	return by
}

func metricValues(runs []result, name string) []float64 {
	vals := make([]float64, 0, len(runs))
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			vals = append(vals, v)
		}
	}
	return vals
}
