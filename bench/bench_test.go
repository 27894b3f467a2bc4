package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile mirrors BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestNamesAndCounts(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better=%q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json, which the driver
// and -compare read, equal to the tables the program reports from.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %+v, program has %s / %s", i, f.Workloads[i], w.Name, w.Why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the program", len(f.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: file has %+v, program has %+v", i, got, d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the file, %d in the program", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := f.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: file has %+v, program has %+v", i, got, d)
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(vals, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample should give 0")
	}
	if vals[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(values, n=4): [2.75, 5.5, 8.25] for 1..10.
func TestQuartileSpread(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got, ok := quartileSpread(vals)
	if want := (8.25 - 2.75) / 5.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v (%v), want %v", got, ok, want)
	}
	// quantiles([10, 11, 13], n=4) = [10, 11, 13].
	if got, ok := quartileSpread([]float64{13, 10, 11}); !ok || math.Abs(got-3.0/11) > 1e-12 {
		t.Errorf("three-value spread = %v (%v)", got, ok)
	}
	if _, ok := quartileSpread([]float64{1}); ok {
		t.Error("one value has no spread")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "round", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 0, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 40, EndNs: 90, Parent: 0},
		{Name: "b.inner", StartNs: 50, EndNs: 60, Parent: 2},
		{Name: "late", StartNs: 95, EndNs: 120, Parent: 0}, // clipped to its parent
	}
	want := []int64{5, 40, 40, 10, 25}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "continuity", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower", lower, steady, []float64{12, 12.1, 11.9, 12, 12}, "regression"},
		{"faster", lower, steady, []float64{8, 8.1, 7.9, 8, 8}, "ok"},
		{"lower continuity", higher, steady, []float64{8, 8.1, 7.9, 8, 8}, "regression"},
		{"noisy", lower, steady, []float64{8, 12, 10, 14, 6}, "unresolved"},
		{"absent", lower, steady, nil, "missing"},
	} {
		if got, _ := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// smoke runs one workload's miniature in this process; a traced pass
// writes its spans into traceDir.
func smoke(t *testing.T, name string, seed uint64, traceDir string) *result {
	t.Helper()
	res, err := runOne(io.Discard, findWorkload(name), seed, 1, traceDir != "", true, traceDir)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct {
		t.Fatalf("%s: checks failed: %v", name, res.Failures)
	}
	return res
}

// TestSmokeEveryWorkload runs the miniature of every workload end to end:
// every end-to-end metric must be measured and never 0.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		res := smoke(t, wl.Name, 1, "")
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (measured: %v)", wl.Name, d.Name, v, ok)
			}
		}
	}
}

// TestSimFingerprints: the simulator workloads are deterministic per seed
// and the seed reaches the worlds.
func TestSimFingerprints(t *testing.T) {
	for _, name := range []string{"sim_static_8k", "sim_churn_10k"} {
		a, b, c := smoke(t, name, 7, ""), smoke(t, name, 7, ""), smoke(t, name, 8, "")
		if a.Fingerprint == "" || a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: seed 7 gave %q then %q", name, a.Fingerprint, b.Fingerprint)
		}
		if a.Fingerprint == c.Fingerprint {
			t.Errorf("%s: seeds 7 and 8 share fingerprint %s", name, a.Fingerprint)
		}
	}
}

// TestTracedSim: on the traced pass the phase spans account for the round
// spans within 3%, the probe leaves the results untouched (checked inside
// the run), the layers report, and the span file is written.
func TestTracedSim(t *testing.T) {
	dir := t.TempDir()
	res := smoke(t, "sim_churn_10k", 3, dir)
	data, err := os.ReadFile(filepath.Join(dir, "trace-sim_churn_10k.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	var roundNs, unaccounted int64
	rounds := 0
	for i, s := range spans {
		if s.Name == "round" {
			rounds++
			roundNs += s.EndNs - s.StartNs
			unaccounted += self[i]
		}
	}
	if rounds == 0 {
		t.Fatal("no round spans")
	}
	if share := float64(unaccounted) / float64(roundNs); share < 0 || share > 0.03 {
		t.Errorf("phases leave %.1f%% of the round spans unaccounted, want <= 3%%", share*100)
	}
	for _, name := range []string{"core.schedule_ms", "core.churn_ms", "core.round_ms_p90", "core.newworld_s",
		"scheduler.requests", "protocol.deliveries", "dht.route_ns", "scheduler.greedy_ns", "buffer.snapshot_ns"} {
		if res.Metrics[name] <= 0 {
			t.Errorf("%s = %v", name, res.Metrics[name])
		}
	}
}
