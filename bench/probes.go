package main

import (
	"time"

	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/livenet"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// Micro probes price single calls of hot-path functions on fixed inputs.
// They run on the traced pass only, after the spans have closed, and feed
// per-layer metrics: a probe moving says which layer changed, an
// end-to-end metric moving says whether it mattered.

// perOp times fn until 100k calls or half a second, whichever comes
// first, and returns ns per call. Batches amortise the clock reads.
func perOp(rc *runCtx, fn func()) float64 {
	maxCalls, budget := 100_000, 500*time.Millisecond
	if rc.smoke {
		maxCalls, budget = 2_000, 20*time.Millisecond
	}
	const batch = 200
	calls := 0
	start := time.Now()
	for calls < maxCalls && time.Since(start) < budget {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// simProbes runs the probes that need a warmed world: the two phase seams
// core exports for cmd/benchreport, DHT routing over the world's own
// tables, and one full repair sweep (last, because it rewrites them).
func simProbes(rc *runCtx, m map[string]float64, last *simWorld) {
	const reps = 3
	start := time.Now()
	for i := 0; i < reps; i++ {
		last.world.BenchSchedulePhase(last.engine.Clock())
	}
	m["core.schedule_probe_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6 / reps
	start = time.Now()
	for i := 0; i < reps; i++ {
		last.world.BenchMaintenanceRound()
	}
	m["core.maintenance_probe_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6 / reps

	net := last.world.DHTNetwork()
	ids := net.IDs()
	rng := sim.DeriveRNG(rc.seed, 0xb0d7e)
	spaceN := net.Space().N()
	var routes, hops int
	m["dht.route_ns"] = perOp(rc, func() {
		out := net.RouteTo(ids[rng.Intn(len(ids))], dht.ID(rng.Intn(spaceN)), nil)
		routes++
		hops += out.Hops
	})
	m["dht.route_hops"] = float64(hops) / float64(routes)
	start = time.Now()
	net.RepairAll(rng)
	m["dht.repair_all_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
}

// microProbes prices the decision functions both runtimes share, on
// synthetic inputs shaped like one node's period at the paper's defaults.
func microProbes(rc *runCtx, m map[string]float64) {
	d := protocol.Default()

	// Algorithm 1 over 60 fresh candidates offered by 5 suppliers.
	const play = segment.ID(1000)
	cands := make([]scheduler.Candidate, 60)
	for i := range cands {
		sup := make([]scheduler.Supplier, 5)
		for j := range sup {
			sup[j] = scheduler.Supplier{Node: j + 1, Rate: 8 + float64((i+3*j)%13), PositionFromTail: 1 + (i*7+j*31)%d.BufferSegments}
		}
		cands[i] = scheduler.Candidate{ID: play + segment.ID(1+i), Suppliers: sup}
	}
	in := scheduler.Input{
		PriorityInput: scheduler.PriorityInput{Play: play, PlaybackRate: d.Rate, BufferSize: d.BufferSegments},
		Tau:           sim.Second,
		InboundBudget: 30,
		Candidates:    cands,
		Scratch:       &scheduler.Scratch{},
		JitterSeed:    rc.seed,
		RarityNoise:   d.RarityNoise,
	}
	m["scheduler.greedy_ns"] = perOp(rc, func() {
		in.Scratch.Reset()
		scheduler.Greedy{}.Schedule(in)
	})

	// One supplier's serve decision: 20 carried requests, 40 fresh asks.
	horizon := 10 * sim.Second
	serve := protocol.ServeInput{
		Capacity:       d.OutboundPerPeriod,
		QueueCap:       d.QueueFactor * d.OutboundPerPeriod,
		Horizon:        horizon,
		SupplierHas:    func(segment.ID) bool { return true },
		RequesterAlive: func(overlay.NodeID) bool { return true },
		RequesterHas:   func(n overlay.NodeID, id segment.ID) bool { return (int(n)+int(id))%11 == 0 },
		Rarity:         func(id segment.ID) float64 { return float64(id%17) / 17 },
	}
	for i := 0; i < 20; i++ {
		serve.Carried = append(serve.Carried, protocol.Request{
			Requester: overlay.NodeID(1 + i%7), ID: play + segment.ID(i), Deadline: horizon + sim.Time(1+i%4)*sim.Second, Carried: true,
		})
	}
	for i := 0; i < 40; i++ {
		serve.Fresh = append(serve.Fresh, protocol.Ask{
			Requester: overlay.NodeID(1 + i%9), ID: play + segment.ID(10+i), Deadline: horizon + sim.Time(1+i%5)*sim.Second,
		})
	}
	var serveScratch protocol.ServeScratch
	m["protocol.plan_serve_ns"] = perOp(rc, func() { protocol.PlanServe(serve, &serveScratch) })

	// One pusher's hop: 10 fresh segments towards 10 neighbours.
	segs := make([]segment.ID, d.Rate)
	for i := range segs {
		segs[i] = play + segment.ID(i)
	}
	nbrs := make([]overlay.NodeID, 10)
	for i := range nbrs {
		nbrs[i] = overlay.NodeID(i + 1)
	}
	lacks := func(n overlay.NodeID) uint64 { return 0x3ff &^ (uint64(n) * 0x55) }
	m["protocol.plan_push_mask_ns"] = perOp(rc, func() {
		protocol.PlanPushMask(rc.seed, 0, play, segs, nbrs, lacks, d.OutboundPerPeriod)
	})

	// One under-degreed node's rewire decision, past the fast path.
	view := protocol.MaintenanceView{
		Node: 7, Warm: true, Round: 50, LastReplace: 10,
		Degree: d.M - 2, DegreeTarget: d.M,
		MissedLastRound: true, MissStreak: 2,
		Provider: newProbeView(d.M-2, d.H),
	}
	var rewire protocol.RewireScratch
	m["protocol.plan_rewire_ns"] = perOp(rc, func() {
		rewire.Reset()
		protocol.PlanRewire(view, d.Maintenance, &rewire)
	})

	// Window scan and map snapshot on a B=600 buffer with 10% holes.
	buf := buffer.New(d.BufferSegments, play)
	for i := 0; i < d.BufferSegments; i++ {
		if (i*2654435761)%10 != 0 {
			buf.Insert(play + segment.ID(i))
		}
	}
	missing := make([]segment.ID, 0, d.BufferSegments)
	m["buffer.missing_scan_ns"] = perOp(rc, func() { missing = buf.AppendMissingIn(missing[:0], buf.Window()) })
	m["buffer.snapshot_ns"] = perOp(rc, func() { buf.Snapshot() })
}

// probeView is a fixed protocol.ViewProvider: a few connected neighbours,
// half of them starved, and full overheard and DHT-peer pools.
type probeView struct {
	neighbours []protocol.NeighborSupply
	overheard  []protocol.CandidateSource
	dhtPeers   []protocol.CandidateSource
}

func newProbeView(degree, overheard int) *probeView {
	v := &probeView{}
	for i := 0; i < degree; i++ {
		v.neighbours = append(v.neighbours, protocol.NeighborSupply{ID: overlay.NodeID(100 + i), Known: true, Supply: float64(i % 2 * 5)})
	}
	for i := 0; i < overheard; i++ {
		v.overheard = append(v.overheard, protocol.CandidateSource{ID: overlay.NodeID(200 + i), Latency: sim.Time(10+(i*37)%90) * sim.Millisecond})
	}
	for i := 0; i < 10; i++ {
		v.dhtPeers = append(v.dhtPeers, protocol.CandidateSource{ID: overlay.NodeID(300 + i), Latency: sim.Time(20+(i*53)%80) * sim.Millisecond})
	}
	return v
}

func (v *probeView) AppendNeighbors(dst []protocol.NeighborSupply) []protocol.NeighborSupply {
	return append(dst, v.neighbours...)
}
func (v *probeView) AppendOverheard(dst []protocol.CandidateSource) []protocol.CandidateSource {
	return append(dst, v.overheard...)
}
func (v *probeView) AppendDHTPeers(dst []protocol.CandidateSource) []protocol.CandidateSource {
	return append(dst, v.dhtPeers...)
}
func (v *probeView) AppendRPCandidates(dst []overlay.NodeID, max int) []overlay.NodeID { return dst }
func (v *probeView) Alive(id overlay.NodeID) bool                                      { return id%5 != 0 }
func (v *probeView) Connected(id overlay.NodeID) bool                                  { return id < 200 }

// The three message kinds of the fixed wire mix, by their wire value
// (livenet keeps the names unexported): map announcement, pull request,
// data grant.
const (
	wireKindMap     livenet.MsgKind = 0
	wireKindRequest livenet.MsgKind = 1
	wireKindData    livenet.MsgKind = 2
)

// wireProbes prices the socket path's per-message work on a fixed mix: a
// B=600 buffer-map announcement with 8 gossip entries, a pull request and
// a data grant; and one shaper decision under the workload's profile.
func wireProbes(rc *runCtx, m map[string]float64, shape string) error {
	d := protocol.Default()
	buf := buffer.New(d.BufferSegments, 0)
	for i := 0; i < d.BufferSegments; i += 2 {
		buf.Insert(segment.ID(i))
	}
	bm := buf.Snapshot()
	gossip := []int{3, 5, 8, 13, 21, 34, 55, 89}
	addrs := make([]string, len(gossip))
	for i := range addrs {
		addrs[i] = "127.0.0.1:40000"
	}
	mix := []livenet.Message{
		{From: 1, Kind: wireKindMap, Map: &bm, Gossip: gossip, GossipAddrs: addrs, Period: 100},
		{From: 2, Kind: wireKindRequest, Seg: 1234, Deadline: 107, Period: 100},
		{From: 3, Kind: wireKindData, Seg: 1234, Hop: 1, Period: 100},
	}
	frames := make([][]byte, len(mix))
	bytes := 0
	for i, msg := range mix {
		f, err := livenet.EncodeMessage(msg)
		if err != nil {
			return err
		}
		if _, err := livenet.DecodeMessage(f); err != nil {
			return err
		}
		frames[i] = f
		bytes += len(f)
	}
	m["livenet.wire_bytes_per_msg"] = float64(bytes) / float64(len(mix))
	i := 0
	m["livenet.wire_encode_ns"] = perOp(rc, func() {
		_, _ = livenet.EncodeMessage(mix[i%len(mix)]) // encoded without error above
		i++
	})
	m["livenet.wire_decode_ns"] = perOp(rc, func() {
		_, _ = livenet.DecodeMessage(frames[i%len(frames)]) // decoded without error above
		i++
	})

	profile, err := livenet.ParseShapeProfile(shape)
	if err != nil {
		return err
	}
	shaper := livenet.NewShaper(profile, rc.seed, 0)
	now := time.Duration(0)
	m["livenet.shaper_shape_ns"] = perOp(rc, func() {
		shaper.Shape(1+i%64, 160, now)
		now += 100 * time.Microsecond
		i++
	})
	return nil
}
