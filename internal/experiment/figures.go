package experiment

import (
	"fmt"

	"continustreaming/internal/core"
	"continustreaming/internal/dht"
	"continustreaming/internal/metrics"
	"continustreaming/internal/sim"
	"continustreaming/internal/theory"
)

// TrackResult pairs the two systems' per-round traces for the continuity
// track figures.
type TrackResult struct {
	Cool    RunResult
	Continu RunResult
	Dynamic bool
}

// Table renders the figure's series as paper-style rows.
func (t TrackResult) Table() *metrics.Table {
	env := "static"
	if t.Dynamic {
		env = "dynamic"
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("Playback continuity track (%s, n=%d)", env, t.Cool.Nodes),
		"t(s)", "CoolStreaming", "ContinuStreaming")
	for i := 0; i < t.Cool.Continuity.Len() && i < t.Continu.Continuity.Len(); i++ {
		tbl.AddRow(i, t.Cool.Continuity.Values[i], t.Continu.Continuity.Values[i])
	}
	return tbl
}

// RunFigure5 reproduces Figure 5: the continuity track of both systems in
// a static 1000-node overlay.
func RunFigure5(o Options) (TrackResult, error) { return runTrack(o, false) }

// RunFigure6 reproduces Figure 6: the same track under 5% churn.
func RunFigure6(o Options) (TrackResult, error) { return runTrack(o, true) }

func runTrack(o Options, dynamic bool) (TrackResult, error) {
	const n = 1000
	runs, err := runAll(o, []core.Config{
		o.ConfigFor(n, core.ProfileCoolStreaming(), dynamic),
		o.ConfigFor(n, core.ProfileContinuStreaming(), dynamic),
	})
	if err != nil {
		return TrackResult{}, err
	}
	return TrackResult{Cool: runs[0], Continu: runs[1], Dynamic: dynamic}, nil
}

// SizePoint is one x-axis point of the size-sweep figures.
type SizePoint struct {
	Nodes   int
	Cool    RunResult
	Continu RunResult
}

// Delta returns PC_new − PC_old at this size.
func (p SizePoint) Delta() float64 {
	return p.Continu.StableContinuity - p.Cool.StableContinuity
}

// SizeSweepResult is the outcome of Figures 7/8.
type SizeSweepResult struct {
	Points  []SizePoint
	Dynamic bool
}

// Table renders the sweep.
func (r SizeSweepResult) Table() *metrics.Table {
	env := "static"
	if r.Dynamic {
		env = "dynamic"
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("Playback continuity vs network size (%s)", env),
		"nodes", "CoolStreaming", "ContinuStreaming", "delta", "PC_warm(new)")
	for _, p := range r.Points {
		tbl.AddRow(p.Nodes, p.Cool.StableContinuity, p.Continu.StableContinuity, p.Delta(),
			p.Continu.StableContinuityWarm)
	}
	return tbl
}

// RunFigure7 reproduces Figure 7: stable continuity across network sizes,
// static environment.
func RunFigure7(o Options) (SizeSweepResult, error) { return runSizeSweep(o, false) }

// RunFigure8 reproduces Figure 8: the same sweep under churn.
func RunFigure8(o Options) (SizeSweepResult, error) { return runSizeSweep(o, true) }

func runSizeSweep(o Options, dynamic bool) (SizeSweepResult, error) {
	res := SizeSweepResult{Dynamic: dynamic}
	cfgs := make([]core.Config, 0, 2*len(o.Sizes))
	for _, n := range o.Sizes {
		cfgs = append(cfgs,
			o.ConfigFor(n, core.ProfileCoolStreaming(), dynamic),
			o.ConfigFor(n, core.ProfileContinuStreaming(), dynamic))
	}
	runs, err := runAll(o, cfgs)
	if err != nil {
		return res, err
	}
	for i, n := range o.Sizes {
		res.Points = append(res.Points, SizePoint{Nodes: n, Cool: runs[2*i], Continu: runs[2*i+1]})
	}
	return res, nil
}

// ControlPoint is one (M, size) cell of Figure 9.
type ControlPoint struct {
	M        int
	Nodes    int
	Overhead float64
	Estimate float64 // the paper's closed-form M/495
}

// ControlSweepResult is the outcome of Figure 9.
type ControlSweepResult struct {
	Points []ControlPoint
}

// Table renders Figure 9.
func (r ControlSweepResult) Table() *metrics.Table {
	tbl := metrics.NewTable("Control overhead vs network size",
		"nodes", "M", "overhead", "estimate(M/495)")
	for _, p := range r.Points {
		tbl.AddRow(p.Nodes, p.M, p.Overhead, p.Estimate)
	}
	return tbl
}

// RunFigure9 reproduces Figure 9: control overhead for M = 4, 5, 6 across
// network sizes (ContinuStreaming; the paper notes both systems' exchange
// mechanisms — and therefore this metric — are essentially identical).
func RunFigure9(o Options) (ControlSweepResult, error) {
	var res ControlSweepResult
	var cfgs []core.Config
	for _, m := range []int{4, 5, 6} {
		for _, n := range o.Sizes {
			cfg := o.ConfigFor(n, core.ProfileContinuStreaming(), false)
			cfg.M = m
			cfgs = append(cfgs, cfg)
		}
	}
	runs, err := runAll(o, cfgs)
	if err != nil {
		return res, err
	}
	for i, cfg := range cfgs {
		res.Points = append(res.Points, ControlPoint{
			M:        cfg.M,
			Nodes:    cfg.Nodes,
			Overhead: runs[i].StableControl,
			Estimate: theory.ControlOverheadEstimate(cfg.M, cfg.BufferSegments, 20, cfg.Stream.Rate, cfg.Stream.BitsPerSegment),
		})
	}
	return res, nil
}

// PrefetchTrackResult is Figure 10: the pre-fetch overhead trace of a
// 1000-node network in both environments.
type PrefetchTrackResult struct {
	Static  RunResult
	Dynamic RunResult
}

// Table renders Figure 10.
func (r PrefetchTrackResult) Table() *metrics.Table {
	tbl := metrics.NewTable("Pre-fetch overhead track (n=1000)",
		"t(s)", "static", "dynamic")
	for i := 0; i < r.Static.Prefetch.Len() && i < r.Dynamic.Prefetch.Len(); i++ {
		tbl.AddRow(i, r.Static.Prefetch.Values[i], r.Dynamic.Prefetch.Values[i])
	}
	return tbl
}

// RunFigure10 reproduces Figure 10.
func RunFigure10(o Options) (PrefetchTrackResult, error) {
	const n = 1000
	runs, err := runAll(o, []core.Config{
		o.ConfigFor(n, core.ProfileContinuStreaming(), false),
		o.ConfigFor(n, core.ProfileContinuStreaming(), true),
	})
	if err != nil {
		return PrefetchTrackResult{}, err
	}
	return PrefetchTrackResult{Static: runs[0], Dynamic: runs[1]}, nil
}

// PrefetchSizePoint is one point of Figure 11.
type PrefetchSizePoint struct {
	Nodes   int
	Static  float64
	Dynamic float64
}

// PrefetchSweepResult is the outcome of Figure 11.
type PrefetchSweepResult struct {
	Points []PrefetchSizePoint
}

// Table renders Figure 11.
func (r PrefetchSweepResult) Table() *metrics.Table {
	tbl := metrics.NewTable("Pre-fetch overhead vs network size",
		"nodes", "static", "dynamic")
	for _, p := range r.Points {
		tbl.AddRow(p.Nodes, p.Static, p.Dynamic)
	}
	return tbl
}

// RunFigure11 reproduces Figure 11: stable pre-fetch overhead across sizes
// in both environments.
func RunFigure11(o Options) (PrefetchSweepResult, error) {
	var res PrefetchSweepResult
	cfgs := make([]core.Config, 0, 2*len(o.Sizes))
	for _, n := range o.Sizes {
		cfgs = append(cfgs,
			o.ConfigFor(n, core.ProfileContinuStreaming(), false),
			o.ConfigFor(n, core.ProfileContinuStreaming(), true))
	}
	runs, err := runAll(o, cfgs)
	if err != nil {
		return res, err
	}
	for i, n := range o.Sizes {
		res.Points = append(res.Points, PrefetchSizePoint{
			Nodes: n, Static: runs[2*i].StablePrefetch, Dynamic: runs[2*i+1].StablePrefetch,
		})
	}
	return res, nil
}

// Figure3Point is one x-axis point of the DHT routing figure.
type Figure3Point struct {
	Nodes       int
	AvgHops     float64
	SuccessRate float64
	// ExpectedHops is the paper's log₂(n)/2 reference curve.
	ExpectedHops float64
}

// Figure3Result is the outcome of the standalone DHT experiment (§4.1).
type Figure3Result struct {
	SpaceSize int
	Points    []Figure3Point
}

// Table renders Figure 3.
func (r Figure3Result) Table() *metrics.Table {
	tbl := metrics.NewTable(
		fmt.Sprintf("DHT routing (N=%d)", r.SpaceSize),
		"nodes", "avg hops", "log2(n)/2", "success rate")
	for _, p := range r.Points {
		tbl.AddRow(p.Nodes, p.AvgHops, p.ExpectedHops, p.SuccessRate)
	}
	return tbl
}

// RunFigure3 reproduces Figure 3: average routing hops and query success
// rate of the loose DHT as the joined population n grows within a fixed
// N = 8192 identifier space.
//
// Unlike the streaming sweeps, this driver stays sequential regardless of
// Options.Par: one RNG stream flows through every size in order (each
// point's joins and queries consume draws the next point continues from),
// so running points concurrently would change the results. It is also far
// cheaper than a single streaming point, so there is nothing to win.
func RunFigure3(o Options) Figure3Result {
	space := dht.NewSpace(8192)
	sizes := []int{500, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000}
	res := Figure3Result{SpaceSize: space.N()}
	rng := sim.DeriveRNG(o.Seed, 0xf1603)
	for _, n := range sizes {
		net := dht.NewNetwork(space)
		joined := 0
		for joined < n {
			if net.Join(dht.ID(rng.Intn(space.N())), rng) != nil {
				joined++
			}
		}
		ids := net.IDs()
		for _, id := range ids {
			net.FillTable(net.Table(id), rng)
		}
		queries := 2000
		totalHops, success := 0, 0
		for q := 0; q < queries; q++ {
			from := ids[rng.Intn(len(ids))]
			target := dht.ID(rng.Intn(space.N()))
			r := net.RouteTo(from, target, nil)
			if r.Success {
				success++
				totalHops += r.Hops
			}
		}
		pt := Figure3Point{
			Nodes:        n,
			SuccessRate:  float64(success) / float64(queries),
			ExpectedHops: theory.ExpectedRoutingHops(n),
		}
		if success > 0 {
			pt.AvgHops = float64(totalHops) / float64(success)
		}
		res.Points = append(res.Points, pt)
	}
	return res
}
