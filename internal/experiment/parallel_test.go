package experiment

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestForPointsRunsEveryIndexOnce covers the pool across widths, including
// the sequential par<=1 path and par wider than the point count.
func TestForPointsRunsEveryIndexOnce(t *testing.T) {
	for _, par := range []int{0, 1, 2, 3, 16} {
		const n = 23
		var counts [n]int32
		forPoints(par, n, nil, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("par=%d: point %d ran %d times", par, i, c)
			}
		}
	}
}

// TestForPointsRespectsWeightCap checks the admission invariant: the sum
// of in-flight weights never exceeds par, and an over-wide weight is
// clamped to par instead of deadlocking the launcher.
func TestForPointsRespectsWeightCap(t *testing.T) {
	const par = 3
	weights := []int{1, 3, 2, 99, 1, 1, 2, 1} // 99 clamps to par
	var mu sync.Mutex
	inflight, peak := 0, 0
	forPoints(par, len(weights), func(i int) int { return weights[i] },
		func(i int) {
			w := weights[i]
			if w > par {
				w = par
			}
			mu.Lock()
			inflight += w
			if inflight > peak {
				peak = inflight
			}
			mu.Unlock()
			mu.Lock()
			inflight -= w
			mu.Unlock()
		})
	if peak > par {
		t.Fatalf("in-flight weight peaked at %d, cap is %d", peak, par)
	}
}

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

// TestMemWeight pins the admission-unit curve the sweep pool uses to keep
// flashcrowd-scale points from running par-wide.
func TestMemWeight(t *testing.T) {
	cases := []struct{ nodes, want int }{
		{100, 1}, {8000, 1}, {9999, 1}, {10000, 2}, {25000, 3}, {100000, 11},
	}
	for _, c := range cases {
		if got := memWeight(c.nodes); got != c.want {
			t.Fatalf("memWeight(%d) = %d, want %d", c.nodes, got, c.want)
		}
	}
}
