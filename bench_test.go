package continustreaming

// One benchmark per table and figure of the paper's evaluation (§5). Each
// bench runs the corresponding experiment at a bench-friendly scale and
// reports the headline quantities as custom metrics, so
// `go test -bench=. -benchmem` regenerates every result series. The
// full-scale sweeps (up to 8000 nodes, the paper's sizes) are produced by
// cmd/continusim; EXPERIMENTS.md records both.

import (
	"testing"

	"continustreaming/internal/experiment"
	"continustreaming/internal/theory"
)

// benchOptions keeps each benchmark iteration to a few seconds while
// preserving every qualitative property the paper reports.
func benchOptions(seed uint64) experiment.Options {
	return experiment.Options{
		Rounds:     24,
		StableTail: 6,
		Sizes:      []int{100, 300, 1000},
		Seed:       seed,
	}
}

// BenchmarkFigure3DHTRouting regenerates Figure 3: average greedy routing
// hops and query success rate of the loose DHT as n grows inside N = 8192.
func BenchmarkFigure3DHTRouting(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiment.RunFigure3(experiment.Options{Seed: uint64(i + 1)})
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.AvgHops, "hops@8000")
		b.ReportMetric(last.SuccessRate, "success@8000")
	}
}

// BenchmarkTable1TheoryVsSimulation regenerates the §5.1 comparison table:
// theoretical PC_old/PC_new at λ = 15 and 14 plus the four simulated
// environments.
func BenchmarkTable1TheoryVsSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := benchOptions(uint64(i + 1))
		res, err := experiment.RunTable1(o)
		if err != nil {
			b.Fatal(err)
		}
		// Rows 0-1 are theory; report the λ=15 row and the heterogeneous
		// static simulation row.
		b.ReportMetric(res.Rows[0].PCNew, "theory-pcnew")
		b.ReportMetric(res.Rows[4].PCOld, "sim-pcold")
		b.ReportMetric(res.Rows[4].PCNew, "sim-pcnew")
	}
}

// BenchmarkFigure5ContinuityStatic regenerates Figure 5: the playback
// continuity track of CoolStreaming vs ContinuStreaming in a static
// 1000-node overlay.
func BenchmarkFigure5ContinuityStatic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure5(benchOptions(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Cool.StableContinuity, "cool")
		b.ReportMetric(res.Continu.StableContinuity, "continu")
	}
}

// BenchmarkFigure6ContinuityDynamic regenerates Figure 6: the same track
// under 5% per-round churn.
func BenchmarkFigure6ContinuityDynamic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure6(benchOptions(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Cool.StableContinuity, "cool")
		b.ReportMetric(res.Continu.StableContinuity, "continu")
	}
}

// BenchmarkFigure7ContinuityVsSizeStatic regenerates Figure 7: stable
// continuity across network sizes, static environment.
func BenchmarkFigure7ContinuityVsSizeStatic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure7(benchOptions(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.Cool.StableContinuity, "cool@max")
		b.ReportMetric(last.Continu.StableContinuity, "continu@max")
		b.ReportMetric(last.Delta(), "delta@max")
	}
}

// BenchmarkFigure8ContinuityVsSizeDynamic regenerates Figure 8: the size
// sweep under churn.
func BenchmarkFigure8ContinuityVsSizeDynamic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure8(benchOptions(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.Cool.StableContinuity, "cool@max")
		b.ReportMetric(last.Continu.StableContinuity, "continu@max")
	}
}

// BenchmarkFigure9ControlOverhead regenerates Figure 9: control overhead
// for M = 4, 5, 6 across sizes, against the paper's M/495 closed form.
func BenchmarkFigure9ControlOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure9(benchOptions(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.Overhead, "overhead")
		b.ReportMetric(last.Estimate, "estimate")
	}
}

// BenchmarkFigure10PrefetchOverheadTrack regenerates Figure 10: the
// pre-fetch overhead trace of a 1000-node network, static and dynamic.
func BenchmarkFigure10PrefetchOverheadTrack(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure10(benchOptions(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Static.StablePrefetch, "static")
		b.ReportMetric(res.Dynamic.StablePrefetch, "dynamic")
	}
}

// BenchmarkFigure11PrefetchOverheadVsSize regenerates Figure 11: stable
// pre-fetch overhead across network sizes in both environments.
func BenchmarkFigure11PrefetchOverheadVsSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFigure11(benchOptions(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.Static, "static@max")
		b.ReportMetric(last.Dynamic, "dynamic@max")
	}
}

// BenchmarkAblationSchedulingPolicies quantifies the design choices
// EXPERIMENTS.md calls out: how each scheduling discipline fares on the
// same workload (static, 300 nodes).
func BenchmarkAblationSchedulingPolicies(b *testing.B) {
	b.ReportAllocs()
	systems := []System{CoolStreaming, ContinuStreamingNoPrefetch, ContinuStreaming}
	for _, sys := range systems {
		b.Run(sys.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(300)
				cfg.System = sys
				cfg.Seed = uint64(i + 1)
				res, err := Run(cfg, 24)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.StableContinuity(), "continuity")
			}
		})
	}
}

// BenchmarkTheoryClosedForms measures the analytical model evaluation
// itself (pure math, no simulation).
func BenchmarkTheoryClosedForms(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := theory.ContinuityModel{Lambda: 15, PlaybackRate: 10, TauSeconds: 1, Replicas: 4}
		b.ReportMetric(m.PCNew(), "pcnew")
	}
}
