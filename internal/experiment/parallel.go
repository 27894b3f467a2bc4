package experiment

import (
	"context"
	"runtime"
	"sync"

	"continustreaming/internal/core"
)

// forPoints runs fn(i) for every point index in [0, n) with at most par
// admission units in flight; weight(i) (clamped into [1, par]) is how many
// units point i occupies while it runs, so memory-heavy points admit fewer
// concurrent companions. Admission follows point order — the launcher
// blocks until the next point's weight fits — which keeps the worst-case
// resident set bounded by par units regardless of completion order and
// prevents a heavy point from being starved by lighter successors.
//
// Every fn writes only its own point's result slot; callers assemble
// outputs in point order after forPoints returns, so a sweep's tables are
// byte-identical to the sequential run's (each point is an independent
// deterministic simulation seeded by its own configuration).
func forPoints(par, n int, weight func(int) int, fn func(int)) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		mu   sync.Mutex
		cond = sync.NewCond(&mu)
		used int
		wg   sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		w := 1
		if weight != nil {
			if w = weight(i); w < 1 {
				w = 1
			}
			if w > par {
				w = par
			}
		}
		mu.Lock()
		for used+w > par {
			cond.Wait()
		}
		used += w
		mu.Unlock()
		wg.Add(1)
		go func(i, w int) {
			defer func() {
				mu.Lock()
				used -= w
				mu.Unlock()
				cond.Broadcast()
				wg.Done()
			}()
			fn(i)
		}(i, w)
	}
	wg.Wait()
}

// memWeight estimates a run's admission units from its node count: one
// unit per started 10000 nodes, so the paper-scale sweep points (≤ 8000
// nodes) run fully parallel while flashcrowd-scale points crowd out
// proportionally many companions instead of running par-wide.
func memWeight(nodes int) int { return 1 + nodes/10000 }

// runAll executes every configuration, up to o.Par admission units at a
// time (0 = GOMAXPROCS, 1 = sequential), committing results in point
// order. The returned error is the first failing point's, in point order,
// matching what a sequential sweep would have reported.
func runAll(o Options, cfgs []core.Config) ([]RunResult, error) {
	res := make([]RunResult, len(cfgs))
	errs := make([]error, len(cfgs))
	forPoints(o.Par, len(cfgs),
		func(i int) int { return memWeight(cfgs[i].Nodes) },
		func(i int) {
			res[i], errs[i] = Run(context.Background(), cfgs[i], o.Rounds, o.StableTail, nil)
		})
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}
