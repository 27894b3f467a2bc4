package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResultSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return set, fmt.Errorf("%s: no runs", path)
	}
	return set, nil
}

// verdict judges one workload × metric pairing, B against baseline A, by
// the metric's bound (the tables are BENCHMARK.json's; a test keeps them
// equal).
// "unresolved" means either side's own run-to-run spread is wider than the
// bound, so the pairing can be called neither unchanged nor regressed.
func verdict(d metricDef, a, b []float64) (v string, worse float64) {
	if len(a) == 0 || len(b) == 0 {
		return "missing", 0
	}
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
	}
	for _, vals := range [][]float64{a, b} {
		if sp, ok := quartileSpread(vals); ok && sp > d.Bound {
			return "unresolved", worse
		}
	}
	if worse > d.Bound {
		return "regression", worse
	}
	return "ok", worse
}

// runCompare prints one row per workload × end-to-end metric, then each
// workload's failed/attempted share and, per seed both sets ran, whether
// the result fingerprints agree. It returns the process exit code: 1 when
// any pairing regressed or is missing, or a workload fails more often.
func runCompare(w io.Writer, pathA, pathB string) int {
	setA, err := loadResultSet(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	setB, err := loadResultSet(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	byA, byB := groupRuns(untraced(setA)), groupRuns(untraced(setB))
	fmt.Fprintf(w, "A: %s (%s, nproc=%d)\nB: %s (%s, nproc=%d)\n", pathA, setA.Host.CPUModel, setA.Host.NProc, pathB, setB.Host.CPUModel, setB.Host.NProc)
	fmt.Fprintf(w, "%-16s %-15s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "worse", "spreadA", "spreadB", "bound", "verdict")
	counts := make(map[string]int)
	status := 0
	for _, wl := range workloads {
		a, b := byA[wl.Name], byB[wl.Name]
		for _, d := range endToEnd {
			va, vb := metricValues(a, d.Name), metricValues(b, d.Name)
			v, worse := verdict(d, va, vb)
			counts[v]++
			if v == "regression" || v == "missing" {
				status = 1
			}
			fmt.Fprintf(w, "%-16s %-15s %12.6g %12.6g %+7.1f%% %8s %8s %5.0f%%  %s\n",
				wl.Name, d.Name, median(va), median(vb), worse*100, spreadText(va), spreadText(vb), d.Bound*100, v)
		}
		fa, fb := failedShare(a), failedShare(b)
		line := fmt.Sprintf("%-16s failed/attempted A %.4f B %.4f", wl.Name, fa, fb)
		if fb > fa {
			line += "  MORE FAILURES"
			status = 1
		}
		same, differ := 0, 0
		for _, ra := range a {
			for _, rb := range b {
				if ra.Seed == rb.Seed && ra.Seconds == rb.Seconds && ra.Fingerprint != "" {
					if ra.Fingerprint == rb.Fingerprint {
						same++
					} else {
						differ++
					}
				}
			}
		}
		if same+differ > 0 {
			line += fmt.Sprintf("  fingerprints: %d equal, %d differ", same, differ)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "ok %d, regression %d, unresolved %d, missing %d\n", counts["ok"], counts["regression"], counts["unresolved"], counts["missing"])
	return status
}

func untraced(set resultSet) resultSet {
	out := resultSet{Host: set.Host}
	for _, r := range set.Runs {
		if !r.Trace {
			out.Runs = append(out.Runs, r)
		}
	}
	return out
}

func spreadText(vals []float64) string {
	if sp, ok := quartileSpread(vals); ok {
		return fmt.Sprintf("%.1f%%", sp*100)
	}
	return "-"
}

func failedShare(runs []result) float64 {
	var attempted, failed int64
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
