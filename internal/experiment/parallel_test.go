package experiment

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

// TestSweepParallelMatchesSequential is the harness's core promise: a
// sweep's rendered tables are byte-identical no matter how many points run
// concurrently, because every point is an independent simulation and
// results commit in point order. It compares a two-size Figure 7 sweep and
// the Table 1 environment grid at Par=1 and Par=4.
func TestSweepParallelMatchesSequential(t *testing.T) {
	base := options(8, 4, 3, 60, 90)

	seqO, parO := base, base
	seqO.Par = 1
	parO.Par = 4

	seq7, err := RunFigure7(seqO)
	if err != nil {
		t.Fatal(err)
	}
	par7, err := RunFigure7(parO)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seq7.Table().RenderCSV(), par7.Table().RenderCSV(); s != p {
		t.Fatalf("figure 7 tables differ between Par=1 and Par=4:\n--- sequential\n%s\n--- parallel\n%s", s, p)
	}

	seqT, err := RunTable1(seqO)
	if err != nil {
		t.Fatal(err)
	}
	parT, err := RunTable1(parO)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seqT.Table().RenderCSV(), parT.Table().RenderCSV(); s != p {
		t.Fatalf("table 1 differs between Par=1 and Par=4:\n--- sequential\n%s\n--- parallel\n%s", s, p)
	}
}

// TestRecordReuseChangesNoByte runs four size-sweep drivers on one Options
// value, so later drivers are served the points earlier ones simulated,
// and holds every table to the same driver's output on an Options with no
// record. Figure 7 and 8 simulate their eight points, Figure 9 is served
// its M = 5 row by Figure 7, and Figure 11 is served all four points.
func TestRecordReuseChangesNoByte(t *testing.T) {
	shared := options(8, 4, 3, 60, 90)
	fresh := shared
	fresh.runs = nil
	drivers := []struct {
		name string
		run  func(Options) (string, error)
	}{
		{"fig7", func(o Options) (string, error) { r, err := RunFigure7(o); return r.Table().RenderCSV(), err }},
		{"fig8", func(o Options) (string, error) { r, err := RunFigure8(o); return r.Table().RenderCSV(), err }},
		{"fig9", func(o Options) (string, error) { r, err := RunFigure9(o); return r.Table().RenderCSV(), err }},
		{"fig11", func(o Options) (string, error) { r, err := RunFigure11(o); return r.Table().RenderCSV(), err }},
	}
	for _, d := range drivers {
		got, err := d.run(shared)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.run(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s differs when served from the record:\n--- served\n%s\n--- simulated\n%s", d.name, got, want)
		}
	}
	if n := len(*shared.runs); n != 12 {
		t.Fatalf("record holds %d points for the 18 asked for, want 12 distinct", n)
	}
}

// TestRecordForcesFreshRuns: every setting a test compares two values of
// keys a different point, so each comparison stays between real runs; a
// configuration with a PhaseProbe is neither stored nor served; and no
// caller's edit of a returned series reaches the record.
func TestRecordForcesFreshRuns(t *testing.T) {
	o := options(8, 4, 3, 60)
	first, err := RunFigure7(o)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(first.Points[0].Continu.Continuity.Values)
	grows := func(name string, o Options, run func(Options) error, simulated int) {
		t.Helper()
		before := len(*o.runs)
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		if got := len(*o.runs) - before; got != simulated {
			t.Fatalf("%s: the record grew by %d points, want %d", name, got, simulated)
		}
	}
	fig7 := func(o Options) error { _, err := RunFigure7(o); return err }
	grows("same options", o, fig7, 0)
	for _, c := range []struct {
		name string
		edit func(*Options)
	}{
		{"Workers", func(o *Options) { o.Workers = 3 }},
		{"Par", func(o *Options) { o.Par = 2 }},
		{"Rounds", func(o *Options) { o.Rounds = 9 }},
		{"StableTail", func(o *Options) { o.StableTail = 3 }},
		{"Seed", func(o *Options) { o.Seed = 4 }},
	} {
		edited := o
		c.edit(&edited)
		grows(c.name, edited, fig7, 2)
	}
	// Figure 9's M = 5 row is Figure 7's ContinuStreaming point; M = 4
	// and M = 6 are new.
	grows("M", o, func(o Options) error { _, err := RunFigure9(o); return err }, 2)

	probed := o
	var calls atomic.Int64 // the sweep's points run concurrently
	probed.PhaseProbe = func(string) { calls.Add(1) }
	grows("PhaseProbe", probed, fig7, 0)
	once := calls.Load()
	grows("PhaseProbe again", probed, fig7, 0)
	if once == 0 || calls.Load() != 2*once {
		t.Fatalf("probe fired %d then %d times: a probed point was served", once, calls.Load()-once)
	}

	// Edit the simulated run's series, then each served copy's: the next
	// driver must still read what was simulated.
	first.Points[0].Continu.Continuity.Values[0] = -1
	for i := 0; i < 2; i++ {
		got, err := RunFigure7(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Points[0].Continu.Continuity.Values, want) {
			t.Fatalf("a caller's edit reached the record: %v, want %v", got.Points[0].Continu.Continuity.Values, want)
		}
		got.Points[0].Continu.Continuity.Values[len(want)-1] = -1
	}
}
