package continustreaming

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"
)

func TestSystemStrings(t *testing.T) {
	if ContinuStreaming().Name != "ContinuStreaming" ||
		CoolStreaming().Name != "CoolStreaming" ||
		ContinuStreamingNoPrefetch().Name != "ContinuStreaming-noprefetch" {
		t.Fatal("system names wrong")
	}
	if !ContinuStreaming().Prefetch || ContinuStreamingNoPrefetch().Prefetch || CoolStreaming().Engine {
		t.Fatal("system axes wrong")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(DefaultConfig(100), 0); err == nil {
		t.Fatal("zero rounds accepted")
	}
	if _, err := Run(DefaultConfig(1), 10); err == nil {
		t.Fatal("one-node overlay accepted")
	}
}

func TestRunQuickstartShape(t *testing.T) {
	cfg := DefaultConfig(120)
	cfg.Seed = 3
	res, err := Run(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuity.Len() != 16 {
		t.Fatalf("continuity rounds = %d", res.Continuity.Len())
	}
	if sc := res.StableContinuity; sc <= 0.3 || sc > 1 {
		t.Fatalf("stable continuity = %v", sc)
	}
	if co := res.StableControl; co <= 0 || co > 0.05 {
		t.Fatalf("control overhead = %v", co)
	}
	if po := res.StablePrefetch; po < 0 || po > 0.1 {
		t.Fatalf("prefetch overhead = %v", po)
	}
}

func TestRunSystemsDiffer(t *testing.T) {
	base := DefaultConfig(200)
	base.Seed = 5
	cool := base
	cool.Profile = CoolStreaming()
	cRes, err := Run(cool, 20)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(base, 20)
	if err != nil {
		t.Fatal(err)
	}
	// The full system must never lose to the baseline on this workload.
	if full.StableContinuity < cRes.StableContinuity-0.05 {
		t.Fatalf("ContinuStreaming %.3f below CoolStreaming %.3f",
			full.StableContinuity, cRes.StableContinuity)
	}
	// The baseline never pays prefetch overhead.
	if cRes.StablePrefetch != 0 {
		t.Fatal("CoolStreaming reported prefetch overhead")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.Seed = 11
	a, err := Run(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Continuity.Values {
		if a.Continuity.Values[i] != b.Continuity.Values[i] {
			t.Fatalf("round %d differs between identical runs", i)
		}
	}
}

func TestRunWorkerCountInvariant(t *testing.T) {
	base := ScenarioHetDynamic(150)
	base.Seed = 11
	one := base
	one.Workers = 1
	a, err := Run(one, 12)
	if err != nil {
		t.Fatal(err)
	}
	many := base
	many.Workers = 8
	b, err := Run(many, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Continuity.Values {
		if a.Continuity.Values[i] != b.Continuity.Values[i] {
			t.Fatalf("round %d differs between 1 and 8 workers", i)
		}
	}
	if a.StableControl != b.StableControl || a.StablePrefetch != b.StablePrefetch {
		t.Fatal("overhead metrics differ between worker counts")
	}
}

func TestRunDynamicEnvironment(t *testing.T) {
	cfg := ScenarioHetDynamic(150)
	cfg.Seed = 9
	res, err := Run(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuity.Len() != 16 {
		t.Fatal("dynamic run incomplete")
	}
}

func TestTheoreticalContinuityPaperValues(t *testing.T) {
	pcOld, pcNew, err := TheoreticalContinuity(15, 10, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pcOld-0.8815) > 1e-3 || math.Abs(pcNew-0.9989) > 1e-3 {
		t.Fatalf("theory = %.4f/%.4f, want 0.8815/0.9989", pcOld, pcNew)
	}
	if _, _, err := TheoreticalContinuity(-1, 10, 1, 4); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestNeighborsOverride(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.M = 4
	cfg.Seed = 2
	if _, err := Run(cfg, 8); err != nil {
		t.Fatal(err)
	}
}

func TestEngineKnobsChangeOutcome(t *testing.T) {
	base := DefaultConfig(200)
	base.Seed = 7
	on, err := Run(base, 16)
	if err != nil {
		t.Fatal(err)
	}
	off := base
	off.PushHops = 0
	off.QueueFactor = 0
	offRes, err := Run(off, 16)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range on.Continuity.Values {
		if on.Continuity.Values[i] != offRes.Continuity.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("disabling push + queueing changed nothing; the knobs are not wired")
	}
	deeper := base
	deeper.PushHops = 3
	if _, err := Run(deeper, 8); err != nil {
		t.Fatal(err)
	}
}

func TestWarmContinuityReported(t *testing.T) {
	cfg := ScenarioHetDynamic(150)
	cfg.Seed = 9
	res, err := Run(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContinuityWarm.Len() != 16 {
		t.Fatalf("warm continuity rounds = %d", res.ContinuityWarm.Len())
	}
	// Warm continuity removes fresh joiners — who almost never play
	// continuously — from both sides of the ratio, so its stable phase
	// sits at or above the plain metric up to a small tolerance (an
	// instantly-caught-up joiner can nudge it fractionally below).
	if res.StableContinuityWarm+0.02 < res.StableContinuity {
		t.Fatalf("warm %.4f well below plain %.4f", res.StableContinuityWarm, res.StableContinuity)
	}
}

func TestRunLiveKillAndRecover(t *testing.T) {
	cfg := DefaultLiveConfig()
	cfg.Peers, cfg.Period, cfg.Seed = 16, 5*time.Millisecond, 7
	for _, bad := range []LiveChurnEvent{
		{KillFraction: 0.3},             // no period
		{Period: 40, KillFraction: 0.3}, // the session has ended
		{Period: 45, Join: 2},
	} {
		cfg.Churn = []LiveChurnEvent{bad}
		if _, err := RunLive(context.Background(), cfg, LiveNode{}, 40); err == nil {
			t.Fatalf("churn event %+v outside the session must be rejected", bad)
		}
	}
	cfg.Churn = nil
	if _, err := RunLive(context.Background(), cfg, LiveNode{Shape: "loss=2%"}, 40); err == nil {
		t.Fatal("shaping an in-process session must be rejected")
	}
	if _, err := RunLive(context.Background(), cfg, LiveNode{}, 0); err == nil {
		t.Fatal("zero periods accepted")
	}
	zero := cfg
	zero.Period = 0
	if _, err := RunLive(context.Background(), zero, LiveNode{}, 40); err == nil {
		t.Fatal("a zero period is a zero, not a request for the default")
	}

	cfg.Churn = []LiveChurnEvent{{Period: 15, KillFraction: 0.3}}
	res, err := RunLive(context.Background(), cfg, LiveNode{}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Periods != 40 || res.Delivered == 0 {
		t.Fatalf("live session did not run: %+v", res)
	}
	if res.DeadDropped == 0 {
		t.Fatalf("mesh repair never dropped a dead link: %+v", res)
	}
	if res.EndDeadLinks != 0 {
		t.Fatalf("%d dead links survived the session", res.EndDeadLinks)
	}
}

// freeUDPPort reserves an ephemeral UDP port and releases it for the
// caller to rebind — the rendezvous point needs an address known before
// it starts.
func freeUDPPort(t *testing.T) int {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	port := c.LocalAddr().(*net.UDPAddr).Port
	c.Close()
	return port
}

// TestRunLiveSocketPath drives the public multi-process surface: each
// RunLive call with LiveNode.Listen set runs ONE peer over a real UDP
// socket, here a source/RP plus three receivers sharing loopback — the
// same shape cmd/livenode runs with one call per process.
func TestRunLiveSocketPath(t *testing.T) {
	const receivers = 3
	cfg := DefaultLiveConfig()
	cfg.Peers, cfg.Period = receivers, 20*time.Millisecond
	scripted := cfg
	scripted.Churn = []LiveChurnEvent{{Period: 5, KillFraction: 0.5}}
	if _, err := RunLive(context.Background(), scripted, LiveNode{Listen: "127.0.0.1:0", Source: true}, 20); err == nil {
		t.Fatal("churn script on the socket path must be rejected")
	}
	if _, err := RunLive(context.Background(), cfg, LiveNode{Listen: "127.0.0.1:0", ID: 3}, 20); err == nil {
		t.Fatal("a bootstrap-less non-zero node must be rejected (only the RP runs without one)")
	}

	rp := fmt.Sprintf("127.0.0.1:%d", freeUDPPort(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	results := make(map[int]LiveStats)
	node := func(nc LiveNode) {
		defer wg.Done()
		res, err := RunLive(ctx, cfg, nc, 40)
		if err != nil {
			t.Errorf("node %d: %v", nc.ID, err)
			return
		}
		mu.Lock()
		results[nc.ID] = res
		mu.Unlock()
	}
	wg.Add(1 + receivers)
	go node(LiveNode{Listen: rp, Source: true})
	for i := 1; i <= receivers; i++ {
		go node(LiveNode{ID: i, Listen: "127.0.0.1:0", Bootstrap: rp})
	}
	wg.Wait()
	if len(results) != 1+receivers {
		t.Fatalf("%d of %d nodes finished", len(results), 1+receivers)
	}
	for i := 1; i <= receivers; i++ {
		if results[i].Delivered == 0 {
			t.Fatalf("receiver %d got no segments over UDP: %+v", i, results[i])
		}
	}
}
