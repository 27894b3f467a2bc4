package experiment

import (
	"reflect"
	"runtime"
	"testing"
)

// TestFigureTracksWorkerCountInvariant is the acceptance check for the
// sharded round pipeline at the harness level: the Figure 5 (static) and
// Figure 6 (churn) reproductions must return identical results whether the
// simulation runs on one worker or on every available core.
func TestFigureTracksWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node tracks are slow in -short mode")
	}
	opts := func(workers int) Options {
		o := options(6, 3, 9)
		o.Workers = workers
		return o
	}
	wide := runtime.GOMAXPROCS(0)
	if wide < 2 {
		wide = 4
	}
	figures := []struct {
		name string
		run  func(Options) (TrackResult, error)
	}{
		{"fig5", RunFigure5},
		{"fig6", RunFigure6},
	}
	for _, fig := range figures {
		name, run := fig.name, fig.run
		one, err := run(opts(1))
		if err != nil {
			t.Fatalf("%s workers=1: %v", name, err)
		}
		many, err := run(opts(wide))
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, wide, err)
		}
		if !reflect.DeepEqual(one.Cool.Continuity, many.Cool.Continuity) ||
			!reflect.DeepEqual(one.Continu.Continuity, many.Continu.Continuity) {
			t.Fatalf("%s: continuity tracks differ between 1 and %d workers", name, wide)
		}
		if !reflect.DeepEqual(one.Cool.Totals, many.Cool.Totals) ||
			!reflect.DeepEqual(one.Continu.Totals, many.Continu.Totals) {
			t.Fatalf("%s: raw counter totals differ between 1 and %d workers", name, wide)
		}
		if one.Cool.StableContinuity != many.Cool.StableContinuity ||
			one.Continu.StableContinuity != many.Continu.StableContinuity {
			t.Fatalf("%s: stable continuity differs between 1 and %d workers", name, wide)
		}
	}
}
