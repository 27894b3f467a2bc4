package experiment

import (
	"context"

	"continustreaming/internal/core"
	"continustreaming/internal/sim"
)

// runAll executes every configuration on a sim.Pool of o.Par workers
// (0 = GOMAXPROCS, 1 = sequential). Each point is an independent
// deterministic simulation that writes only its own result slot, so a
// sweep's tables are byte-identical to the sequential run's. The returned
// error is the first failing point's, in point order, matching what a
// sequential sweep would have reported.
func runAll(o Options, cfgs []core.Config) ([]RunResult, error) {
	res := make([]RunResult, len(cfgs))
	errs := make([]error, len(cfgs))
	sim.NewPool(o.Par).ForEach(len(cfgs), func(i int) {
		res[i], errs[i] = Run(context.Background(), cfgs[i], o.Rounds, o.StableTail, nil)
	})
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}
