package experiment

import (
	"fmt"

	"continustreaming/internal/core"
	"continustreaming/internal/metrics"
	"continustreaming/internal/theory"
)

// Table1Row is one line of the §5.1 theory-versus-simulation table:
// PC_old (no on-demand retrieval), PC_new (with it) and Δ.
type Table1Row struct {
	Environment string
	PCOld       float64
	PCNew       float64
	Delta       float64
	// PCNewWarm is PC_new over the warm population only (nodes past
	// their joiner warm-up; equals PC_new in static environments and for
	// the theory rows, which have no joiners).
	PCNewWarm float64
}

// Table1Result reproduces the unnumbered comparison table of §5.1.
type Table1Result struct {
	Rows []Table1Row
}

// Table renders the comparison.
func (r Table1Result) Table() *metrics.Table {
	tbl := metrics.NewTable("Theory vs simulation (n=1000, p=10, tau=1s, k=4)",
		"environment", "PC_old", "PC_new", "delta", "PC_new(warm)")
	for _, row := range r.Rows {
		tbl.AddRow(row.Environment, row.PCOld, row.PCNew, row.Delta, row.PCNewWarm)
	}
	return tbl
}

// RunTable1 computes the two theoretical rows (λ = 15 and λ = 14) and
// simulates the four environment rows: homogeneous/heterogeneous ×
// static/dynamic, each measured as the stable continuity of the system
// with pre-fetch disabled (PC_old) and enabled (PC_new).
func RunTable1(o Options) (Table1Result, error) {
	var res Table1Result
	for _, lambda := range []float64{15, 14} {
		m := theory.ContinuityModel{Lambda: lambda, PlaybackRate: 10, TauSeconds: 1, Replicas: 4}
		res.Rows = append(res.Rows, Table1Row{
			Environment: fmt.Sprintf("theory λ=%g", lambda),
			PCOld:       m.PCOld(),
			PCNew:       m.PCNew(),
			Delta:       m.Delta(),
			PCNewWarm:   m.PCNew(),
		})
	}
	type env struct {
		name        string
		homogeneous bool
		dynamic     bool
	}
	envs := []env{
		{"homogeneous static", true, false},
		{"homogeneous dynamic", true, true},
		{"heterogeneous static", false, false},
		{"heterogeneous dynamic", false, true},
	}
	const n = 1000
	cfgs := make([]core.Config, 0, 2*len(envs))
	for _, e := range envs {
		oldCfg := o.ConfigFor(n, core.ProfileSchedulingOnly(), e.dynamic)
		newCfg := o.ConfigFor(n, core.ProfileContinuStreaming(), e.dynamic)
		if e.homogeneous {
			oldCfg.Bandwidth.Homogeneous = true
			newCfg.Bandwidth.Homogeneous = true
		}
		cfgs = append(cfgs, oldCfg, newCfg)
	}
	runs, err := runAll(o, cfgs)
	if err != nil {
		return res, err
	}
	for i, e := range envs {
		oldRun, newRun := runs[2*i], runs[2*i+1]
		res.Rows = append(res.Rows, Table1Row{
			Environment: e.name,
			PCOld:       oldRun.StableContinuity,
			PCNew:       newRun.StableContinuity,
			Delta:       newRun.StableContinuity - oldRun.StableContinuity,
			PCNewWarm:   newRun.StableContinuityWarm,
		})
	}
	return res, nil
}
