package main

// metricDef names one reported number. Better is "lower" or "higher";
// Bound (end-to-end metrics only) is the share of the baseline median by
// which the metric may worsen before -compare calls it a regression. The
// same tables are mirrored in BENCHMARK.json; a test keeps them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them on the untraced pass.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"round_ms", "ms", "lower", 0.25},
	{"continuity", "fraction", "higher", 0.05},
	{"overhead_ratio", "fraction", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced pass, prefixed by
// the module they belong to. A workload that does not exercise a layer
// reports 0 for it.
var perLayer = buildPerLayer()

// corePhases are the PhaseProbe names of core.World.Step, in call order.
var corePhases = []string{
	"begin", "push", "exchange", "predict", "prefetch", "schedule",
	"serve", "apply", "playback", "maintenance", "churn", "dhtrepair",
}

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("lower", "ms", "host.slice_ms")
	add("higher", "fraction", "host.speed_factor")
	for _, p := range corePhases {
		add("lower", "ms", "core."+p+"_ms")
	}
	add("lower", "ms", "core.round_ms_p90", "core.schedule_probe_ms", "core.maintenance_probe_ms")
	add("higher", "1/s", "core.node_rounds_per_s")
	add("lower", "count", "core.allocs_per_round")
	add("lower", "B", "core.bytes_per_round")
	add("lower", "s", "core.newworld_s")
	add("lower", "%", "core.trace_overhead_pct")

	add("lower", "count", "scheduler.requests", "scheduler.dropped")
	add("higher", "count", "protocol.deliveries", "protocol.push_deliveries")
	add("lower", "count", "protocol.push_duplicates")
	add("higher", "fraction", "protocol.push_useful_ratio")
	add("higher", "count", "protocol.queue_served")
	add("lower", "count", "protocol.queue_carried", "protocol.queue_evicted_deadline",
		"protocol.queue_evicted_overflow", "protocol.queue_evicted_stale")
	add("lower", "count", "prefetch.lookup_attempts")
	add("higher", "count", "prefetch.lookup_found")
	add("lower", "count", "prefetch.lookup_no_route", "prefetch.lookup_no_backup",
		"prefetch.lookup_no_rate", "prefetch.source_rescues")
	add("higher", "fraction", "metrics.continuity_warm")
	add("lower", "fraction", "metrics.control_overhead", "metrics.prefetch_overhead")
	add("higher", "count", "metrics.playing_node_rounds")
	add("lower", "count", "metrics.missed_node_rounds")

	add("lower", "ns", "dht.route_ns")
	add("lower", "count", "dht.route_hops")
	add("lower", "ms", "dht.repair_all_ms")
	add("lower", "ns", "scheduler.greedy_ns", "protocol.plan_serve_ns", "protocol.plan_push_mask_ns",
		"protocol.plan_rewire_ns", "buffer.missing_scan_ns", "buffer.snapshot_ns")

	for _, d := range sweepDrivers {
		add("lower", "s", "experiment."+d.name+"_s")
	}
	add("higher", "count", "experiment.points")
	add("higher", "fraction", "experiment.par_efficiency")

	add("higher", "count", "livenet.delivered", "livenet.push_delivered")
	add("lower", "count", "livenet.asks_sent", "livenet.asks_received")
	add("higher", "count", "livenet.grants_sent")
	add("lower", "count", "livenet.grants_evicted")
	add("higher", "fraction", "livenet.grant_ratio")
	add("lower", "count", "livenet.rescue_asked")
	add("higher", "count", "livenet.rescued", "livenet.queue_served")
	add("lower", "count", "livenet.queue_carried", "livenet.dead_dropped", "livenet.replaced",
		"livenet.end_dead_links", "livenet.transport_dropped", "livenet.shape_dropped",
		"livenet.shape_delayed", "livenet.resyncs", "livenet.behind_periods")
	add("higher", "count", "livenet.nodes_reported")
	add("higher", "fraction", "livenet.continuity_all")
	add("lower", "us", "livenet.cpu_us_per_peer_period")
	add("lower", "fraction", "livenet.period_overrun")
	add("lower", "ns", "livenet.wire_encode_ns", "livenet.wire_decode_ns")
	add("lower", "B", "livenet.wire_bytes_per_msg")
	add("lower", "ns", "livenet.shaper_shape_ns")
	return defs
}

// workloadDef is one named set of inputs. run executes it in this process.
type workloadDef struct {
	Name string
	Why  string
	run  func(rc *runCtx) (*result, error)
}

var workloads = []workloadDef{
	{"paper_sweep_1k", "closed batch: every paper figure and table at sizes up to 1000; ~40 short runs dominated by world construction, fill-up and the baseline profile", runSweep},
	{"sim_static_8k", "closed batch: 8000-node static worlds after warm-up; schedule, serve, apply and the sequential pre-fetch dominate, churn paths idle", runSimStatic},
	{"sim_churn_10k", "closed batch: 10000-node worlds under 5%/round churn (the Step10k world); churn, maintenance and DHT repair carry a third of the round", runSimChurn},
	{"live_mesh_400", "open loop: 400-peer in-process livenet with a kill-and-join event; all cost is peer decision logic, no codec and no syscalls", runLiveMesh},
	{"live_udp_64", "open loop: source plus 64 nodes over shaped loopback UDP; wire codec, socket transport and shaper dominate", runLiveUDP},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
