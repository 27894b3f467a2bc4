package experiment

import (
	"context"
	"reflect"
	"slices"

	"continustreaming/internal/core"
	"continustreaming/internal/metrics"
	"continustreaming/internal/sim"
)

// runAll executes every configuration on a sim.Pool of o.Par workers
// (0 = GOMAXPROCS, 1 = sequential). Each point is an independent
// deterministic simulation that writes only its own result slot, so a
// sweep's tables are byte-identical to the sequential run's. The returned
// error is the first failing point's, in point order, matching what a
// sequential sweep would have reported. A point o's record holds is served
// a copy of its result instead of run again; the record is touched outside
// ForEach only, so it takes no lock, and never takes a configuration with
// a PhaseProbe, whose probe must fire on every run.
func runAll(o Options, cfgs []core.Config) ([]RunResult, error) {
	res := make([]RunResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var fresh []int
	for i, cfg := range cfgs {
		if j := o.recorded(cfg); j >= 0 {
			res[i] = detached((*o.runs)[j].res)
		} else {
			fresh = append(fresh, i)
		}
	}
	sim.NewPool(o.Par).ForEach(len(fresh), func(j int) {
		i := fresh[j]
		res[i], errs[i] = Run(context.Background(), cfgs[i], o.Rounds, o.StableTail, nil)
	})
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	for _, i := range fresh {
		if o.runs != nil && cfgs[i].PhaseProbe == nil {
			*o.runs = append(*o.runs, ran{cfgs[i], o.Rounds, o.StableTail, o.Par, detached(res[i])})
		}
	}
	return res, nil
}

// ran is one simulated point, keyed by Par too so that sweeps compared at
// two settings compare real runs.
type ran struct {
	cfg               core.Config
	rounds, tail, par int
	res               RunResult
}

// recorded returns the index of o's run of cfg, or -1. A cfg with a
// PhaseProbe matches nothing: reflect.DeepEqual holds no non-nil func equal.
func (o Options) recorded(cfg core.Config) int {
	if o.runs == nil {
		return -1
	}
	return slices.IndexFunc(*o.runs, func(r ran) bool {
		return r.rounds == o.Rounds && r.tail == o.StableTail && r.par == o.Par && reflect.DeepEqual(r.cfg, cfg)
	})
}

// detached returns r with its own copy of every series.
func detached(r RunResult) RunResult {
	for _, s := range []*metrics.Series{&r.Continuity, &r.ContinuityWarm, &r.Control, &r.Prefetch} {
		s.Values = slices.Clone(s.Values)
	}
	return r
}
