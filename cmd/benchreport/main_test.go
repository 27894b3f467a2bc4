package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseCurve(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
	}{
		{"", nil},
		{"  ", nil},
		{"1", []int{1}},
		{"1,4,8", []int{1, 4, 8}},
		{" 1 , 4 , 8 ", []int{1, 4, 8}},
	} {
		got, err := parseCurve(c.in)
		if err != nil {
			t.Fatalf("parseCurve(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseCurve(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"0", "-1", "1,,8", "1,x", "8,4,1", "1,4,4"} {
		if _, err := parseCurve(bad); err == nil {
			t.Errorf("parseCurve(%q) accepted", bad)
		}
	}
}

// curveReport builds a report with a workers curve from (workers, ns/op,
// fingerprint) triples.
func curveReport(cpus int, points ...BenchResult) Report {
	return Report{Schema: schema, CPUs: cpus, WorkersCurve: points}
}

func point(workers int, ns int64, fp string) BenchResult {
	return BenchResult{Name: nameOf(workers), Nodes: 10000, Workers: workers, TimedRounds: 2, NsPerOp: ns, ResultFingerprint: fp}
}

func nameOf(workers int) string {
	return "Step10k/w" + string(rune('0'+workers))
}

func TestCheckCurveSpeedupPasses(t *testing.T) {
	rep := curveReport(8, point(1, 8000, "aa"), point(4, 3000, "aa"), point(8, 2500, "aa"))
	failures, notes := checkCurve(rep, 2.5)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "passed") {
		t.Fatalf("notes = %v, want a pass note", notes)
	}
}

func TestCheckCurveSpeedupFails(t *testing.T) {
	rep := curveReport(8, point(1, 8000, "aa"), point(8, 4000, "aa")) // 2.0x < 2.5x
	failures, _ := checkCurve(rep, 2.5)
	if len(failures) != 1 || !strings.Contains(failures[0], "below the required") {
		t.Fatalf("failures = %v, want one speedup failure", failures)
	}
}

// TestCheckCurveGateNeedsCPUs pins the dev-box behaviour: a runner
// narrower than the widest point cannot fail the speedup gate, however
// bad the measured ratio, but says so in a note.
func TestCheckCurveGateNeedsCPUs(t *testing.T) {
	rep := curveReport(1, point(1, 8000, "aa"), point(8, 9000, "aa"))
	failures, notes := checkCurve(rep, 2.5)
	if len(failures) != 0 {
		t.Fatalf("narrow runner failed the speedup gate: %v", failures)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "skipped") {
		t.Fatalf("notes = %v, want a skip note", notes)
	}
}

// TestCheckCurveIdentityFailsAnywhere: a fingerprint mismatch across
// worker counts is a determinism bug and must fail even on a runner too
// narrow for the speedup gate.
func TestCheckCurveIdentityFailsAnywhere(t *testing.T) {
	rep := curveReport(1, point(1, 8000, "aa"), point(4, 8000, "bb"), point(8, 8000, "aa"))
	failures, _ := checkCurve(rep, 2.5)
	if len(failures) != 1 || !strings.Contains(failures[0], "not bit-identical") {
		t.Fatalf("failures = %v, want one identity failure", failures)
	}
}

func TestCheckCurveEmptyAndAnchorless(t *testing.T) {
	if f, n := checkCurve(Report{CPUs: 8}, 2.5); f != nil || n != nil {
		t.Fatalf("empty curve produced %v / %v", f, n)
	}
	failures, notes := checkCurve(curveReport(8, point(4, 3000, "aa"), point(8, 2000, "aa")), 2.5)
	if len(failures) != 0 || len(notes) != 1 || !strings.Contains(notes[0], "anchor") {
		t.Fatalf("anchorless curve: failures=%v notes=%v", failures, notes)
	}
}

// runner stamps a report with a runner fingerprint.
func runner(rep Report, model string) Report {
	rep.GOOS, rep.GOARCH, rep.CPUModel = "linux", "amd64", model
	if rep.CPUs == 0 {
		rep.CPUs = 8
	}
	return rep
}

// TestGateCoversCurvePoints: a curve point regressing beyond tolerance
// fails the gate exactly like a plain benchmark.
func TestGateCoversCurvePoints(t *testing.T) {
	base := runner(Report{
		Schema:       schema,
		Benchmarks:   []BenchResult{{Name: "Step10k", NsPerOp: 1000}},
		WorkersCurve: []BenchResult{point(1, 1000, "aa"), point(8, 300, "aa")},
	}, "m")
	rep := runner(Report{
		Schema:       schema,
		Benchmarks:   []BenchResult{{Name: "Step10k", NsPerOp: 1000}},
		WorkersCurve: []BenchResult{point(1, 1000, "aa"), point(8, 500, "aa")},
	}, "m")
	res := gate(rep, base, 0.20)
	if !res.fingerprintOK {
		t.Fatal("matching runners reported as mismatched")
	}
	if len(res.regressions) != 1 || !strings.Contains(res.regressions[0], nameOf(8)) {
		t.Fatalf("regressions = %v, want one for the w8 curve point", res.regressions)
	}
	failures, downgraded := verdict(res)
	if len(failures) != 1 || len(downgraded) != 0 {
		t.Fatalf("verdict = (%v, %v), want the regression fatal on matching hardware", failures, downgraded)
	}
}

// TestGateDowngradeWithCurves: on mismatched hardware, curve-point ns/op
// regressions downgrade to warnings just like plain ones, but a missing
// measurement still fails.
func TestGateDowngradeWithCurves(t *testing.T) {
	base := runner(Report{
		Schema:       schema,
		Benchmarks:   []BenchResult{{Name: "Step10k", NsPerOp: 1000}},
		WorkersCurve: []BenchResult{point(1, 1000, "aa"), point(8, 300, "aa")},
	}, "old-xeon")
	rep := runner(Report{
		Schema:       schema,
		Benchmarks:   []BenchResult{{Name: "Step10k", NsPerOp: 5000}},
		WorkersCurve: []BenchResult{point(1, 5000, "aa")}, // w8 missing
	}, "new-xeon")
	res := gate(rep, base, 0.20)
	if res.fingerprintOK {
		t.Fatal("different CPU models reported as matching")
	}
	failures, downgraded := verdict(res)
	if len(downgraded) != 2 {
		t.Fatalf("downgraded = %v, want both ns/op regressions as warnings", downgraded)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], nameOf(8)) {
		t.Fatalf("failures = %v, want only the missing w8 measurement", failures)
	}
}

// alloc builds a plain benchmark measurement with allocation figures.
func alloc(name string, ns, bytes, allocs int64) BenchResult {
	return BenchResult{Name: name, Nodes: 10000, Workers: 1, TimedRounds: 2,
		NsPerOp: ns, BPerOp: bytes, AllocsPerOp: allocs, ResultFingerprint: "aa"}
}

// TestGateAllocationPasses: allocation figures inside tolerance — even
// slightly above the baseline — pass the gate.
func TestGateAllocationPasses(t *testing.T) {
	base := runner(Report{Schema: schema,
		Benchmarks: []BenchResult{alloc("Step10k", 1000, 27_000_000, 100_000)}}, "m")
	rep := runner(Report{Schema: schema,
		Benchmarks: []BenchResult{alloc("Step10k", 1000, 30_000_000, 110_000)}}, "m")
	res := gate(rep, base, 0.20)
	failures, downgraded := verdict(res)
	if len(failures) != 0 || len(downgraded) != 0 {
		t.Fatalf("in-tolerance allocations: failures=%v downgraded=%v, want clean", failures, downgraded)
	}
}

// TestGateAllocationFails: B/op and allocs/op regressions beyond the
// tolerance fail on matching hardware, independently of ns/op.
func TestGateAllocationFails(t *testing.T) {
	base := runner(Report{Schema: schema,
		Benchmarks: []BenchResult{alloc("Step10k", 1000, 27_000_000, 100_000)}}, "m")
	rep := runner(Report{Schema: schema,
		Benchmarks: []BenchResult{alloc("Step10k", 1000, 40_000_000, 200_000)}}, "m")
	res := gate(rep, base, 0.20)
	failures, downgraded := verdict(res)
	if len(downgraded) != 0 {
		t.Fatalf("downgraded = %v, want none on matching hardware", downgraded)
	}
	joined := strings.Join(failures, "; ")
	if len(failures) != 2 ||
		!strings.Contains(joined, "B/op") || !strings.Contains(joined, "allocs/op") {
		t.Fatalf("failures = %v, want a B/op and an allocs/op regression", failures)
	}
}

// TestGateAllocationDowngrades: on mismatched hardware the allocation
// regressions downgrade to warnings alongside the ns/op ones.
func TestGateAllocationDowngrades(t *testing.T) {
	base := runner(Report{Schema: schema,
		Benchmarks: []BenchResult{alloc("Step10k", 1000, 27_000_000, 100_000)}}, "old-xeon")
	rep := runner(Report{Schema: schema,
		Benchmarks: []BenchResult{alloc("Step10k", 5000, 40_000_000, 200_000)}}, "new-xeon")
	res := gate(rep, base, 0.20)
	failures, downgraded := verdict(res)
	if len(failures) != 0 {
		t.Fatalf("failures = %v, want all regressions downgraded", failures)
	}
	if len(downgraded) != 3 {
		t.Fatalf("downgraded = %v, want ns/op, B/op and allocs/op warnings", downgraded)
	}
}

// TestParseBaselineRejectsOtherSchemas: a baseline in a retired layout, or
// one with nothing recorded, fails with the refresh hint instead of
// gating against figures it does not carry.
func TestParseBaselineRejectsOtherSchemas(t *testing.T) {
	for _, raw := range []string{
		`{"schema":"continustreaming-benchreport/v1","benchmarks":[{"name":"Step1k","ns_per_op":100}]}`,
		`{"schema":"continustreaming-benchreport/v2","benchmarks":[{"name":"Step1k","ns_per_op":100}]}`,
		`{"schema":"continustreaming-benchreport/v3","benchmarks":[]}`,
	} {
		if _, err := parseBaseline([]byte(raw)); err == nil || !strings.Contains(err.Error(), "-update-baseline") {
			t.Errorf("parseBaseline(%s) = %v, want a refusal with the refresh hint", raw, err)
		}
	}
	ok := `{"schema":"continustreaming-benchreport/v3","seed":1,"benchmarks":[{"name":"Step1k","ns_per_op":100}]}`
	if base, err := parseBaseline([]byte(ok)); err != nil || base.Seed != 1 || len(base.Benchmarks) != 1 {
		t.Errorf("parseBaseline(current) = %+v, %v", base, err)
	}
}

// TestGateResultFingerprintPasses: equal result fingerprints add nothing
// to the verdict, and fingerprints that are not comparable — another seed,
// another round count, one side without a fingerprint — are not compared.
func TestGateResultFingerprintPasses(t *testing.T) {
	base := runner(Report{Schema: schema, Seed: 1,
		Benchmarks: []BenchResult{alloc("Step10k", 1000, 27_000_000, 100_000), {Name: "Maintenance10k", NsPerOp: 10}}}, "m")
	rep := runner(Report{Schema: schema, Seed: 1,
		Benchmarks: []BenchResult{alloc("Step10k", 1000, 27_000_000, 100_000), {Name: "Maintenance10k", NsPerOp: 10}}}, "m")
	if res := gate(rep, base, 0.20); len(res.drifted) != 0 {
		t.Fatalf("drifted = %v on identical fingerprints", res.drifted)
	}
	other := alloc("Step10k", 1000, 27_000_000, 100_000)
	other.ResultFingerprint = "bb"
	reseeded := runner(Report{Schema: schema, Seed: 2, Benchmarks: []BenchResult{other, {Name: "Maintenance10k", NsPerOp: 10}}}, "m")
	if res := gate(reseeded, base, 0.20); len(res.drifted) != 0 {
		t.Fatalf("drifted = %v for a run with another seed", res.drifted)
	}
	other.TimedRounds = 5
	longer := runner(Report{Schema: schema, Seed: 1, Benchmarks: []BenchResult{other, {Name: "Maintenance10k", NsPerOp: 10}}}, "m")
	if res := gate(longer, base, 0.20); len(res.drifted) != 0 {
		t.Fatalf("drifted = %v for a run with another round count", res.drifted)
	}
}

// TestGateResultFingerprintFails: a result fingerprint that differs from
// the baseline's is a hard failure — on matching hardware and, unlike the
// timing gates, on mismatched hardware too.
func TestGateResultFingerprintFails(t *testing.T) {
	base := runner(Report{Schema: schema,
		Benchmarks:   []BenchResult{alloc("Step10k", 1000, 27_000_000, 100_000)},
		WorkersCurve: []BenchResult{point(1, 1000, "aa")}}, "old-xeon")
	changed := alloc("Step10k", 1000, 27_000_000, 100_000)
	changed.ResultFingerprint = "bb"
	for _, model := range []string{"old-xeon", "new-xeon"} {
		rep := runner(Report{Schema: schema,
			Benchmarks:   []BenchResult{changed},
			WorkersCurve: []BenchResult{point(1, 1000, "bb")}}, model)
		res := gate(rep, base, 0.20)
		if len(res.drifted) != 2 {
			t.Fatalf("runner %s: drifted = %v, want Step10k and its curve point", model, res.drifted)
		}
		failures, downgraded := verdict(res)
		if len(failures) != 2 || len(downgraded) != 0 {
			t.Fatalf("runner %s: verdict = (%v, %v), want both drifts fatal", model, failures, downgraded)
		}
	}
}
