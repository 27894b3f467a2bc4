package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"continustreaming/internal/livenet"
)

// Both live workloads are open loops: the source emits Rate segments every
// Period whether or not the peers keep up, so a slow runtime shows as
// period overrun (wall time beyond periods × Period) and as lost
// continuity, not as a longer batch. -seconds sets the session length.
const livePeriod = 50 * time.Millisecond

// liveHostSample is how often a host-speed slice runs beside a session.
const liveHostSample = 500 * time.Millisecond

// liveTotals is a session's stats summed over its reporting nodes.
type liveTotals struct {
	livenet.Stats
	nodes         int     // nodes that reported
	tailSum       float64 // sum of per-node final-quarter continuity
	continuitySum float64 // sum of per-node whole-session continuity
}

// add folds in one Stats that stands for the given number of viewers: one
// in node mode, the whole audience in driver mode.
func (t *liveTotals) add(s livenet.Stats, viewers int) {
	t.nodes += viewers
	t.tailSum += float64(viewers) * s.TailContinuity(max(1, len(s.PerPeriod)/4))
	t.continuitySum += float64(viewers) * s.Continuity
	t.Delivered += s.Delivered
	t.PushDelivered += s.PushDelivered
	t.Rescued += s.Rescued
	t.RescueAsked += s.RescueAsked
	t.QueueServed += s.QueueServed
	t.QueueCarried += s.QueueCarried
	t.DeadDropped += s.DeadDropped
	t.Replaced += s.Replaced
	t.EndDeadLinks += s.EndDeadLinks
	t.AsksSent += s.AsksSent
	t.AsksReceived += s.AsksReceived
	t.GrantsSent += s.GrantsSent
	t.GrantsEvicted += s.GrantsEvicted
	t.TransportDropped += s.TransportDropped
	t.ShapeDropped += s.ShapeDropped
	t.ShapeDelayed += s.ShapeDelayed
	t.Resyncs += s.Resyncs
	t.BehindPeriods += s.BehindPeriods
}

// liveSession is what the two transports share once a session has run.
type liveSession struct {
	totals    liveTotals
	receivers int // viewers expected to report at the end
	periods   int
	period    time.Duration
	wallS     float64
	cpuS      float64
	setups    []float64
}

// report turns a finished session into metrics and output checks. A
// session that loses viewers, moves no data or plays less than half the
// time counts as wholly failed, never as fast.
func (ls *liveSession) report(rc *runCtx, res *result) {
	t := ls.totals
	continuity := 0.0
	if t.nodes > 0 {
		continuity = t.tailSum / float64(t.nodes)
	}
	res.Attempted += int64(ls.receivers)
	switch {
	case t.nodes < ls.receivers:
		res.failN(int64(ls.receivers), "%d of %d viewers reported", t.nodes, ls.receivers)
	case t.Delivered <= 0:
		res.failN(int64(ls.receivers), "no segment was delivered")
	case continuity < 0.5:
		res.failN(int64(ls.receivers), "final-quarter continuity %.3f is below 0.5", continuity)
	}
	nominal := float64(ls.periods) * ls.period.Seconds()
	m := res.Metrics
	m["setup_s"] = median(ls.setups)
	m["wall_s"] = ls.wallS
	m["cpu_s"] = ls.cpuS
	m["round_ms"] = ls.wallS * 1e3 / float64(ls.periods)
	m["continuity"] = continuity
	m["overhead_ratio"] = float64(t.AsksSent+t.RescueAsked) / float64(max(t.Delivered, 1))
	rc.logf("session periods=%d period=%v nominal=%.2fs viewers=%d reported=%d", ls.periods, ls.period, nominal, ls.receivers, t.nodes)
	if !rc.traced() {
		return
	}
	m["livenet.delivered"] = float64(t.Delivered)
	m["livenet.push_delivered"] = float64(t.PushDelivered)
	m["livenet.asks_sent"] = float64(t.AsksSent)
	m["livenet.asks_received"] = float64(t.AsksReceived)
	m["livenet.grants_sent"] = float64(t.GrantsSent)
	m["livenet.grants_evicted"] = float64(t.GrantsEvicted)
	m["livenet.grant_ratio"] = float64(t.GrantsSent) / float64(max(t.AsksReceived, 1))
	m["livenet.rescue_asked"] = float64(t.RescueAsked)
	m["livenet.rescued"] = float64(t.Rescued)
	m["livenet.queue_served"] = float64(t.QueueServed)
	m["livenet.queue_carried"] = float64(t.QueueCarried)
	m["livenet.dead_dropped"] = float64(t.DeadDropped)
	m["livenet.replaced"] = float64(t.Replaced)
	m["livenet.end_dead_links"] = float64(t.EndDeadLinks)
	m["livenet.transport_dropped"] = float64(t.TransportDropped)
	m["livenet.shape_dropped"] = float64(t.ShapeDropped)
	m["livenet.shape_delayed"] = float64(t.ShapeDelayed)
	m["livenet.resyncs"] = float64(t.Resyncs)
	m["livenet.behind_periods"] = float64(t.BehindPeriods)
	m["livenet.nodes_reported"] = float64(t.nodes)
	m["livenet.continuity_all"] = t.continuitySum / float64(max(t.nodes, 1))
	m["livenet.cpu_us_per_peer_period"] = ls.cpuS * 1e6 / float64((ls.receivers+1)*ls.periods)
	m["livenet.period_overrun"] = ls.wallS / nominal
}

// runLiveMesh is live_mesh_400: driver-mode livenet over the channel
// transport with one kill-and-join event. Set-up is a short session of
// the same mesh with a 1 ms period — construction plus thirty periods run
// back to back — repeated; it warms the process and prices the decision
// logic closed-loop, which the open-loop session cannot show.
func runLiveMesh(rc *runCtx) (*result, error) {
	res := newResult()
	cfg := livenet.DefaultConfig()
	cfg.Peers, cfg.Period, cfg.Seed = 400, livePeriod, rc.seed
	periods := rc.seconds * int(time.Second/livePeriod)
	warmPeriods, warmPasses, joins := 30, 3, 100
	if rc.smoke {
		cfg.Peers, cfg.Period, periods = 12, 20*time.Millisecond, 40
		warmPeriods, warmPasses, joins = 10, 2, 3
	}
	cfg.Churn = []livenet.ChurnEvent{
		{Period: periods * 30 / 100, KillFraction: 0.25},
		{Period: periods * 34 / 100, Join: joins},
	}
	rc.logf("config peers=%d period=%v periods=%d churn=%+v transport=channels (open loop)", cfg.Peers, cfg.Period, periods, cfg.Churn)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	ls := &liveSession{periods: periods, period: cfg.Period}
	warm := cfg
	warm.Period, warm.Churn = time.Millisecond, nil
	for i := 0; i < warmPasses; i++ {
		rc.host.sample()
		start := time.Now()
		if st := livenet.Run(ctx, warm, warmPeriods); st.Delivered <= 0 {
			return nil, fmt.Errorf("warm-up session delivered nothing")
		}
		ls.setups = append(ls.setups, time.Since(start).Seconds())
	}

	runtime.GC() // the warm-up sessions' heaps are garbage by now
	session := rc.tr.begin("session", -1, 0)
	run := rc.tr.begin("livenet.run", session, 0)
	stopHost := rc.host.watch(liveHostSample)
	watch := startWatch()
	st := livenet.Run(ctx, cfg, periods)
	ls.wallS, ls.cpuS = watch.stop()
	stopHost()
	rc.tr.end(run)
	rc.tr.end(session)

	ls.receivers = cfg.Peers - st.Killed + st.Joined
	if st.Periods == periods {
		// Driver mode returns one Stats for the whole mesh: every viewer
		// alive at the end is in it.
		ls.totals.add(st, ls.receivers)
	}
	ls.report(rc, res)
	// The warm-up runs back to back, so the host's speed sets its time as
	// it sets the session's CPU time; the session's wall time is the
	// ticker's.
	res.cpuBound = []string{"setup_s", "cpu_s"}
	return res, nil
}

// udpShape is the WAN profile every live_udp_64 node applies to its egress.
const udpShape = "loss=2%,latency=10ms,jitter=5ms"

// runLiveUDP is live_udp_64: node-mode livenet, a source and 64 receivers
// each on its own UDP socket on 127.0.0.1 (loopback: no real link is
// crossed), every link shaped. Set-up binds the sockets and runs a short
// session at a 20 ms period, repeated.
func runLiveUDP(rc *runCtx) (*result, error) {
	res := newResult()
	res.Network = "loopback (127.0.0.1 UDP, shaped " + udpShape + ")"
	cfg := livenet.DefaultConfig()
	cfg.Peers, cfg.Period, cfg.Seed = 64, livePeriod, rc.seed
	periods := rc.seconds * int(time.Second/livePeriod)
	warmPeriods, warmPasses := 30, 3
	if rc.smoke {
		cfg.Peers, cfg.Period, periods = 12, 20*time.Millisecond, 40
		warmPeriods, warmPasses = 10, 2
	}
	rc.logf("config nodes=1+%d period=%v periods=%d shape=%q transport=udp network=loopback (open loop)", cfg.Peers, cfg.Period, periods, udpShape)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	ls := &liveSession{periods: periods, period: cfg.Period, receivers: cfg.Peers}
	warm := cfg
	warm.Period = 20 * time.Millisecond
	for i := 0; i < warmPasses; i++ {
		rc.host.sample()
		start := time.Now()
		t, _, _, err := udpSession(ctx, warm, warmPeriods, rc.seed, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up session: %w", err)
		}
		if t.Delivered <= 0 {
			return nil, fmt.Errorf("warm-up session delivered nothing")
		}
		ls.setups = append(ls.setups, time.Since(start).Seconds())
	}

	runtime.GC() // the warm-up sessions' heaps are garbage by now
	stopHost := rc.host.watch(liveHostSample)
	var err error
	ls.totals, ls.wallS, ls.cpuS, err = udpSession(ctx, cfg, periods, rc.seed, rc.tr)
	stopHost()
	if err != nil {
		return nil, err
	}
	ls.report(rc, res)
	res.cpuBound = []string{"cpu_s"} // set-up and wall time follow the tickers
	if rc.traced() {
		if err := wireProbes(rc, res.Metrics, udpShape); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// udpSession binds a source and cfg.Peers receivers on loopback, runs them
// to the given period and sums the receivers' stats. The wall and CPU time
// cover the running session, not the binds. A node whose Run fails is one
// that did not report.
func udpSession(ctx context.Context, cfg livenet.Config, periods int, seed uint64, tr *tracer) (totals liveTotals, wallS, cpuS float64, err error) {
	session := tr.begin("session", -1, 0)
	defer tr.end(session)
	bind := tr.begin("livenet.bind", session, 0)
	nodes := make([]*livenet.Node, 0, cfg.Peers+1)
	closeAll := func() {
		for _, n := range nodes {
			_ = n.Close() // abandoning the session; the bind error is what is reported
		}
	}
	for id := 0; id <= cfg.Peers; id++ {
		nc := livenet.NodeConfig{ID: id, Listen: "127.0.0.1:0", Source: id == 0, Shape: udpShape, ShapeSeed: seed}
		if id > 0 {
			nc.Bootstrap = nodes[0].Addr()
		}
		n, err := livenet.NewNode(cfg, nc)
		if err != nil {
			closeAll()
			return totals, 0, 0, fmt.Errorf("binding node %d: %w", id, err)
		}
		nodes = append(nodes, n)
	}
	tr.end(bind)

	run := tr.begin("livenet.run", session, 0)
	watch := startWatch()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for id, n := range nodes {
		wg.Add(1)
		go func(id int, n *livenet.Node) {
			defer wg.Done()
			sp := tr.begin("livenet.node_run", run, id)
			st, err := n.Run(ctx, periods)
			tr.end(sp)
			if err == nil && id != 0 {
				mu.Lock()
				totals.add(st, 1)
				mu.Unlock()
			}
		}(id, n)
	}
	wg.Wait()
	wallS, cpuS = watch.stop()
	tr.end(run)
	return totals, wallS, cpuS, nil
}
