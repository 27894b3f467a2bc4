package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"continustreaming/internal/churn"
	"continustreaming/internal/core"
	"continustreaming/internal/metrics"
	"continustreaming/internal/sim"
)

// simParams sizes one simulator workload. A run builds several worlds from
// seeds derived from -seed and times a fixed window of rounds on each, so
// one run already averages over worlds: a single world's topology draw
// moves continuity and overhead by more than any bound could allow.
type simParams struct {
	nodes int
	churn bool
	// rounds is the timed window per world, after the warm-up.
	rounds int
	// worldsPerSecond sizes the batch from -seconds.
	worldsPerSecond float64
}

func (p simParams) worlds(seconds int) int {
	return max(2, int(math.Round(float64(seconds)*p.worldsPerSecond)))
}

func (p simParams) config(seed uint64, workers int) core.Config {
	cfg := core.DefaultConfig(p.nodes)
	cfg.Profile = core.ProfileContinuStreaming()
	if p.churn {
		cfg.Churn = churn.DefaultConfig()
	}
	cfg.Workers = workers
	cfg.Seed = seed
	return cfg
}

// worldSeed derives world i's simulator seed; world 0 runs -seed itself.
func worldSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x9e3779b97f4a7c15 }

// runSimStatic is sim_static_8k: Figure 7's largest size. Thirty rounds
// after warm-up cover the settling of the static mesh, where schedule,
// serve, apply and the sequential pre-fetch phase carry the round.
func runSimStatic(rc *runCtx) (*result, error) {
	p := simParams{nodes: 8000, rounds: 30, worldsPerSecond: 0.3}
	if rc.smoke {
		p = simParams{nodes: 200, rounds: 3}
	}
	return runSim(rc, p)
}

// runSimChurn is sim_churn_10k: the ROADMAP's Step10k world. The timed
// window is the three rounds after warm-up because that is where this
// world is still the system the paper describes: from about round 12 on
// continuity collapses at a seed-dependent moment (0.06 to 0.33 over a
// long run), which no bound can hold. More worlds make up the samples.
func runSimChurn(rc *runCtx) (*result, error) {
	p := simParams{nodes: 10000, churn: true, rounds: 3, worldsPerSecond: 0.6}
	if rc.smoke {
		p = simParams{nodes: 200, churn: true, rounds: 3}
	}
	return runSim(rc, p)
}

// simWorld is one built, warmed and timed world.
type simWorld struct {
	world     *core.World
	engine    *sim.Engine
	newWorldS float64
	setupS    float64
	roundMs   []float64
	wallS     float64
	cpuS      float64
	mallocs   uint64
	bytes     uint64
	timed     []metrics.RoundSample
}

// buildWarm constructs a world and runs it past the playback delay, as
// cmd/benchreport's warmWorld does, so every phase carries its load.
func buildWarm(cfg core.Config) (*simWorld, error) {
	start := time.Now()
	w, err := core.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	sw := &simWorld{world: w, newWorldS: time.Since(start).Seconds()}
	sw.engine = sim.NewEngine(w, cfg.Tau)
	sw.engine.Run(cfg.PlaybackDelayRounds + 2)
	sw.setupS = time.Since(start).Seconds()
	return sw, nil
}

// hostSampleEvery is how many timed rounds pass between two host-speed
// slices: often enough to follow the host's drift, rarely enough that the
// slice's cache footprint does not show in the rounds.
const hostSampleEvery = 5

// timeRounds runs the timed window, one individually timed round at a
// time; wall and CPU time are sums over the rounds, so the host-speed
// slices taken between rounds stay out of both. rec, when set, records a
// round span with phase children for each round.
func (sw *simWorld) timeRounds(rounds int, host *hostSpeed, rec *phaseRecorder, firstID int) {
	warm := sw.world.Collector().Rounds()
	// Collect the previous world and the build's garbage first, so neither
	// rides into this window's time or the process's peak RSS.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		if r%hostSampleEvery == 0 {
			host.sample()
		}
		watch := startWatch()
		if rec != nil {
			rec.openRound(firstID + r)
		}
		sw.engine.Run(1)
		if rec != nil {
			rec.closeRound()
		}
		wallS, cpuS := watch.stop()
		sw.roundMs = append(sw.roundMs, wallS*1e3)
		sw.wallS += wallS
		sw.cpuS += cpuS
	}
	runtime.ReadMemStats(&after)
	sw.mallocs, sw.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	sw.timed = sw.world.Collector().Samples()[warm:]
}

// foldSamples hashes every round sample of a world, warm-up included, the
// way cmd/benchreport fingerprints a run.
func foldSamples(h hash.Hash64, w *core.World) {
	for _, s := range w.Collector().Samples() {
		fmt.Fprintf(h, "%+v\n", s)
	}
}

func worldFingerprint(w *core.World) uint64 {
	h := fnv.New64a()
	foldSamples(h, w)
	return h.Sum64()
}

func runSim(rc *runCtx, p simParams) (*result, error) {
	res := newResult()
	worlds := p.worlds(rc.seconds)
	rc.logf("config nodes=%d churn=%v worlds=%d timed_rounds_per_world=%d workers=%d (closed batch)",
		p.nodes, p.churn, worlds, p.rounds, rc.workers)

	var (
		rec    *phaseRecorder
		runs   []*simWorld // the worlds whose numbers are reported
		ratios []float64   // traced/untraced time of the same round
		fp     = fnv.New64a()
		last   *simWorld // the final world, kept whole for the probes
	)
	if rc.traced() {
		rec = newPhaseRecorder(rc.tr)
		// Each world runs twice, untraced then traced, so the pair gives
		// the tracing overhead and proves the probe changes no result;
		// half as many worlds keep the pass as long as the untraced one.
		worlds = max(1, worlds/2)
	}
	for i := 0; i < worlds; i++ {
		if last != nil {
			last.world, last.engine = nil, nil
		}
		cfg := p.config(worldSeed(rc.seed, i), rc.workers)
		rc.host.sample()
		sw, err := buildWarm(cfg)
		if err != nil {
			return nil, err
		}
		sw.timeRounds(p.rounds, rc.host, nil, 0)
		if rc.traced() {
			plainMs, plainFP := sw.roundMs, worldFingerprint(sw.world)
			cfg.PhaseProbe = rec.probe
			if sw, err = buildWarm(cfg); err != nil {
				return nil, err
			}
			sw.timeRounds(p.rounds, rc.host, rec, i*p.rounds)
			tracedFP := worldFingerprint(sw.world)
			res.check(tracedFP == plainFP, "world %d: traced fingerprint %016x differs from untraced %016x — the probe perturbed the run", i, tracedFP, plainFP)
			for r := range sw.roundMs {
				ratios = append(ratios, sw.roundMs[r]/plainMs[r])
			}
		}
		foldSamples(fp, sw.world)
		checkRounds(res, i, sw.timed)
		runs = append(runs, sw)
		last = sw
	}
	res.Fingerprint = fmt.Sprintf("%016x", fp.Sum64())

	var setups, newWorlds, roundMs []float64
	timed := metrics.NewCollector() // the timed rounds of every world
	var wallS, cpuS, contSum, warmSum float64
	playing, continuous := 0, 0
	var mallocs, bytes uint64
	rounds := 0
	for _, sw := range runs {
		setups = append(setups, sw.setupS)
		newWorlds = append(newWorlds, sw.newWorldS)
		roundMs = append(roundMs, sw.roundMs...)
		wallS += sw.wallS
		cpuS += sw.cpuS
		mallocs += sw.mallocs
		bytes += sw.bytes
		for _, s := range sw.timed {
			timed.Record(s)
			playing += s.PlayingNodes
			continuous += s.ContinuousNodes
			contSum += s.Continuity()
			warmSum += s.ContinuityWarm()
			rounds++
		}
	}
	// Totals sums every counter but the two node counts.
	total := timed.Totals()
	total.PlayingNodes, total.ContinuousNodes = playing, continuous
	n := float64(rounds)
	m := res.Metrics
	m["setup_s"] = median(setups)
	m["wall_s"] = wallS
	m["cpu_s"] = cpuS
	m["round_ms"] = median(roundMs)
	m["continuity"] = contSum / n
	m["overhead_ratio"] = float64(total.ControlBits+total.PrefetchRoutingBits+total.PrefetchDataBits) / float64(total.DataBits)
	res.cpuBound = []string{"setup_s", "wall_s", "cpu_s", "round_ms"}
	rc.logf("timed rounds=%d (samples behind round_ms); playing node-rounds=%d, missed=%d",
		rounds, total.PlayingNodes, total.PlayingNodes-total.ContinuousNodes)

	if rc.traced() {
		for _, phase := range corePhases {
			m["core."+phase+"_ms"] = rc.tr.selfMs("core."+phase) / n
		}
		m["core.round_ms_p90"] = percentile(roundMs, 0.9)
		m["core.node_rounds_per_s"] = float64(total.PlayingNodes) / wallS
		m["core.allocs_per_round"] = float64(mallocs) / n
		m["core.bytes_per_round"] = float64(bytes) / n
		m["core.newworld_s"] = mean(newWorlds)
		m["core.trace_overhead_pct"] = (median(ratios) - 1) * 100
		countMetrics(m, total, warmSum/n)
		simProbes(rc, m, last)
		microProbes(rc, m)
	} else {
		checkWorkerIndependence(res, p, rc)
	}
	return res, nil
}

// countMetrics reports the exact per-layer counts of the timed window.
// They are deterministic per seed, so two commits compare exactly.
func countMetrics(m map[string]float64, t metrics.RoundSample, continuityWarm float64) {
	m["scheduler.requests"] = float64(t.Requests)
	m["scheduler.dropped"] = float64(t.Dropped)
	m["protocol.deliveries"] = float64(t.Deliveries)
	m["protocol.push_deliveries"] = float64(t.PushDeliveries)
	m["protocol.push_duplicates"] = float64(t.PushDuplicates)
	if pushed := t.PushDeliveries + t.PushDuplicates; pushed > 0 {
		m["protocol.push_useful_ratio"] = float64(t.PushDeliveries) / float64(pushed)
	}
	m["protocol.queue_served"] = float64(t.QueueServed)
	m["protocol.queue_carried"] = float64(t.QueueCarried)
	m["protocol.queue_evicted_deadline"] = float64(t.QueueEvictedDeadline)
	m["protocol.queue_evicted_overflow"] = float64(t.QueueEvictedOverflow)
	m["protocol.queue_evicted_stale"] = float64(t.QueueEvictedStale)
	m["prefetch.lookup_attempts"] = float64(t.LookupAttempts)
	m["prefetch.lookup_found"] = float64(t.LookupFound)
	m["prefetch.lookup_no_route"] = float64(t.LookupNoRoute)
	m["prefetch.lookup_no_backup"] = float64(t.LookupNoBackup)
	m["prefetch.lookup_no_rate"] = float64(t.LookupNoRate)
	m["prefetch.source_rescues"] = float64(t.SourceRescues)
	m["metrics.continuity_warm"] = continuityWarm
	m["metrics.control_overhead"] = t.ControlOverhead()
	m["metrics.prefetch_overhead"] = t.PrefetchOverhead()
	m["metrics.playing_node_rounds"] = float64(t.PlayingNodes)
	m["metrics.missed_node_rounds"] = float64(t.PlayingNodes - t.ContinuousNodes)
}

// checkRounds verifies each timed round's sample: one checked operation
// per round, failed when the round's accounting cannot be right.
func checkRounds(res *result, world int, timed []metrics.RoundSample) {
	for _, s := range timed {
		ok := s.PlayingNodes > 0 && s.ContinuousNodes >= 0 && s.ContinuousNodes <= s.PlayingNodes &&
			s.Deliveries > 0 && s.DataBits > 0 && s.ControlBits > 0
		res.check(ok, "world %d round %d: implausible sample %+v", world, s.Round, s)
	}
}

// checkWorkerIndependence re-runs a small world of the workload's kind
// at Workers=1 and at the pinned width: the pipeline's results must be
// bit-identical at any worker count.
func checkWorkerIndependence(res *result, p simParams, rc *runCtx) {
	small := p
	small.nodes = min(p.nodes, 300)
	var fps [2]uint64
	for i, workers := range []int{1, max(rc.workers, 2)} {
		sw, err := buildWarm(small.config(rc.seed, workers))
		if err != nil {
			res.check(false, "worker-independence world: %v", err)
			return
		}
		sw.engine.Run(3)
		fps[i] = worldFingerprint(sw.world)
	}
	res.check(fps[0] == fps[1], "results differ between Workers=1 (%016x) and Workers=%d (%016x)", fps[0], max(rc.workers, 2), fps[1])
}
