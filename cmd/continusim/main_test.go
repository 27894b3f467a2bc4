package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"continustreaming"
	"continustreaming/internal/churn"
)

// traceFile writes a short churn trace for the -churntrace rows.
func traceFile(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := churn.WriteTrace(&buf, churn.ExponentialTrace(12, 20)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "churn.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckModeFlags drives the rejection parse applies: a flag the
// selected mode never reads, or a churn trace under a scenario whose
// membership is fixed, is named in an error, and every flag the mode does
// read — the invocations CI and EXPERIMENTS.md use — passes.
func TestCheckModeFlags(t *testing.T) {
	trace := traceFile(t)
	for _, tc := range []struct {
		args string
		want string // substring of the error; empty = accepted
	}{
		{"-scenario hetstatic -sizes 100", "-sizes does nothing under -scenario"},
		{"-scenario hetstatic -par 4", "-par does nothing under -scenario"},
		{"-scenario hetstatic -experiment fig5", "-experiment does nothing under -scenario"},
		{"-experiment fig5 -nodes 77", "-nodes does nothing under -experiment"},
		{"-nodes 77", "-nodes does nothing under -experiment"},
		{"-experiment table1 -phaseprof", "-phaseprof does nothing under -experiment"},
		{"-scenario hetstatic -churntrace " + trace, "-churntrace does nothing under a static scenario"},
		{"-scenario homstatic2k -churntrace " + trace, "-churntrace does nothing under a static scenario"},
		{"-scenario baseline -nodes 100 -churntrace " + trace, "-churntrace does nothing under a static scenario"},
		{"-scenario homdynamic -churntrace " + trace, ""},
		{"-scenario hetstatic -nodes 100 -rounds 3 -seed 0 -delay 5 -delayseg 20", ""},
		{"-experiment fig5 -seed 0", ""},
		{"-scenario flashcrowd100k -rounds 12 -tail 4 -phaseprof", ""},
		{"-scenario hetdynamic -nodes 8000 -seed 2 -workers 4 -pushhops 1 -queuefactor 3 -csv -churntrace " + trace, ""},
		{"-experiment all -rounds 10 -tail 4 -sizes 100,200,400 -par 4", ""},
		{"-experiment fig9 -delay 5 -delayseg 40 -workers 1 -churntrace " + trace, ""},
		{"", ""},
	} {
		_, err := parse(strings.Fields(tc.args), io.Discard)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestFlagsLandInConfig: every flag's value is the value of the field it
// names in the configuration the worlds are built from, in both modes —
// there is no "0 = default" layer in between, so -pushhops 0 is pull-only
// and -seed 0 is seed 0.
func TestFlagsLandInConfig(t *testing.T) {
	trace := traceFile(t)
	for _, tc := range []struct {
		args string
		got  func(invocation) any
		want any
	}{
		{"-rounds 12", func(i invocation) any { return i.opts.Rounds }, 12},
		{"-tail 3", func(i invocation) any { return i.opts.StableTail }, 3},
		{"-seed 0", func(i invocation) any { return i.opts.Seed }, uint64(0)},
		{"-seed 9", func(i invocation) any { return i.opts.Seed }, uint64(9)},
		{"-sizes 60,90", func(i invocation) any { return i.opts.Sizes }, []int{60, 90}},
		{"-sizes 60 -sizes 70", func(i invocation) any { return i.opts.Sizes }, []int{70}},
		{"-workers 3", func(i invocation) any { return i.opts.Workers }, 3},
		{"-par 4", func(i invocation) any { return i.opts.Par }, 4},
		{"-pushhops 0", func(i invocation) any { return i.opts.PushHops }, 0},
		{"-pushhops 3", func(i invocation) any { return i.opts.PushHops }, 3},
		{"-queuefactor 0", func(i invocation) any { return i.opts.QueueFactor }, 0},
		{"-delayseg 40", func(i invocation) any { return i.opts.PlaybackDelaySegments }, 40},
		{"-delay 3", func(i invocation) any { return [2]int{i.opts.PlaybackDelayRounds, i.opts.PlaybackDelaySegments} }, [2]int{3, 0}},
		{"-delay 5 -delayseg 30", func(i invocation) any { return [2]int{i.opts.PlaybackDelayRounds, i.opts.PlaybackDelaySegments} }, [2]int{5, 30}},
		{"-churntrace " + trace, func(i invocation) any { return len(i.opts.Churn.Trace.Leave) }, 12},
		{"-experiment fig8", func(i invocation) any { return i.experiment }, "fig8"},
		{"-csv", func(i invocation) any { return i.csv }, true},
		{"-scenario hetdynamic -phaseprof", func(i invocation) any { return i.phaseprof }, true},
		{"-scenario hetdynamic -nodes 321", func(i invocation) any { return i.opts.Nodes }, 321},
		{"-scenario hetdynamic500 -nodes 321", func(i invocation) any { return i.opts.Nodes }, 500},
		{"-scenario hetdynamic -pushhops 0 -seed 4", func(i invocation) any { return [2]uint64{uint64(i.opts.PushHops), i.opts.Seed} }, [2]uint64{0, 4}},
		{"-scenario hetdynamic -churntrace " + trace, func(i invocation) any { return len(i.opts.Churn.Trace.Leave) }, 12},
		{"-scenario homstatic -delay 4", func(i invocation) any {
			return [2]int{i.opts.PlaybackDelayRounds, i.opts.PlaybackDelaySegments}
		}, [2]int{4, 0}},
	} {
		inv, err := parse(strings.Fields(tc.args), io.Discard)
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		if got := tc.got(inv); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: field = %v, want %v", tc.args, got, tc.want)
		}
	}
	// With no protocol flag set, a scenario runs exactly the configuration
	// the public constructor returns.
	for _, name := range continustreaming.Scenarios() {
		inv, err := parse([]string{"-scenario", name, "-nodes", "500"}, io.Discard)
		if err != nil {
			t.Fatalf("-scenario %s: %v", name, err)
		}
		want, _ := continustreaming.ScenarioByName(name, 500)
		if !reflect.DeepEqual(inv.opts.Config, want) {
			t.Errorf("-scenario %s runs %+v, the constructor returns %+v", name, inv.opts.Config, want)
		}
	}
}

// TestGoldenTables pins what the command prints, recorded at the commit
// before the entry-layer refactor (PR 20): a size sweep, the Table 1
// environment grid, and a scenario run minus its host-dependent
// peak_rss_kb line. A default that moves, or a flag that stops reaching
// its field, shows up here as a changed number.
func TestGoldenTables(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"fig7.golden", "-experiment fig7 -sizes 60,90 -rounds 8 -tail 4"},
		{"table1.golden", "-experiment table1 -rounds 8 -tail 4 -sizes 60"},
		{"hetdynamic.golden", "-scenario hetdynamic -nodes 120 -rounds 8 -tail 4"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args), &out); err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		var got []string
		for _, line := range strings.SplitAfter(out.String(), "\n") {
			if !strings.HasPrefix(line, "peak_rss_kb=") {
				got = append(got, line)
			}
		}
		if strings.Join(got, "") != string(want) {
			t.Errorf("continusim %s:\n%s\nwant (testdata/%s):\n%s", tc.args, strings.Join(got, ""), tc.golden, want)
		}
	}
}
