package core

import (
	"testing"

	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

func smallConfig(n int, profile Profile) Config {
	cfg := DefaultConfig(n)
	cfg.Profile = profile
	cfg.Seed = 42
	return cfg
}

func TestDefaultConfigValidates(t *testing.T) {
	cfg := DefaultConfig(1000)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.M != 5 || cfg.BufferSegments != 600 || cfg.Replicas != 4 || cfg.PrefetchLimit != 5 {
		t.Fatalf("paper defaults wrong: %+v", cfg)
	}
	if cfg.spaceSize() != 8192 {
		t.Fatalf("space size = %d", cfg.spaceSize())
	}
	big := DefaultConfig(8000)
	if big.spaceSize() != 16384 {
		t.Fatalf("space size for 8000 nodes = %d", big.spaceSize())
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 1 },
		func(c *Config) { c.M = 0 },
		func(c *Config) { c.H = 0 }, // no overheard list; was a silent 20
		func(c *Config) { c.BufferSegments = 0 },
		func(c *Config) { c.Tau = 0 },
		func(c *Config) { c.Replicas = 0 },
		func(c *Config) { c.PrefetchLimit = 0 },
		func(c *Config) { c.PlaybackDelayRounds = 0 },
		func(c *Config) { c.THop = 0 },
		func(c *Config) { c.Stream.Rate = 0 },
		func(c *Config) { c.Stream.Rate = 65 }, // past the push planner's one-word frontier
		func(c *Config) { c.Bandwidth.MeanIn = 0 },
		func(c *Config) { c.Churn.LeaveFraction = -1 },
		func(c *Config) { c.PlaybackDelaySegments = 591 }, // the live edge would lie past the 600-segment buffer
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(100)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestPolicyKindString(t *testing.T) {
	names := map[PolicyKind]string{
		PolicyUrgencyRarity: "urgency-rarity",
		PolicyRarestFirst:   "rarest-first",
		PolicyKind(99):      "policy(99)",
	}
	//continulint:maporder each key asserts independently; order only picks which failure reports first
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestNewWorldShape(t *testing.T) {
	w, err := NewWorld(smallConfig(100, ProfileContinuStreaming()))
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 100 {
		t.Fatalf("size = %d", w.Size())
	}
	src := w.Node(w.Source())
	if src == nil || !src.IsSource || src.Rates.In != 0 || src.Rates.Out != 100 {
		t.Fatalf("source wrong: %+v", src)
	}
	// Every non-source node has at least M neighbours (augmentation).
	for _, id := range w.Nodes() {
		deg := len(w.neighborsOf(id))
		if deg < w.Config().M {
			t.Fatalf("node %d degree %d < M", id, deg)
		}
		// Edge symmetry.
		for _, nb := range w.neighborsOf(id) {
			found := false
			for _, back := range w.neighborsOf(nb) {
				if back == id {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d-%d asymmetric", id, nb)
			}
		}
		n := w.Node(id)
		if n.Alpha == nil && !n.IsSource {
			t.Fatalf("node %d missing alpha under prefetch profile", id)
		}
	}
	// DHT membership matches world membership.
	if w.DHTNetwork().Size() != w.Size() {
		t.Fatalf("dht size %d != world %d", w.DHTNetwork().Size(), w.Size())
	}
}

func TestNewWorldCoolStreamingHasNoPrefetchState(t *testing.T) {
	w, err := NewWorld(smallConfig(50, ProfileCoolStreaming()))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range w.Nodes() {
		if w.Node(id).Alpha != nil {
			t.Fatalf("node %d carries prefetch state in CoolStreaming profile", id)
		}
	}
	if got := w.policy.Name(); got != "rarest-first" {
		t.Fatalf("world schedules with policy %q", got)
	}
}

func TestNewWorldRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig(1)
	if _, err := NewWorld(cfg); err == nil {
		t.Fatal("1-node world accepted")
	}
}

func TestLatencyRule(t *testing.T) {
	w, err := NewWorld(smallConfig(20, ProfileCoolStreaming()))
	if err != nil {
		t.Fatal(err)
	}
	ids := w.Nodes()
	a, b := ids[0], ids[1]
	if w.Latency(a, b) != w.Latency(b, a) {
		t.Fatal("latency not symmetric")
	}
	if w.Latency(a, b) <= 0 {
		t.Fatal("latency not positive")
	}
	if w.Latency(a, overlay_missing) <= 0 {
		t.Fatal("missing-node latency fallback broken")
	}
}

const overlay_missing = -99

func TestPlaybackPositions(t *testing.T) {
	w, err := NewWorld(smallConfig(20, ProfileCoolStreaming()))
	if err != nil {
		t.Fatal(err)
	}
	// Default delay = 65 segments: the position pins at 0 until round 7
	// (vpos = 70-65 = 5 at round 7).
	if w.playbackPos(0) != 0 || w.playbackPos(6) != 0 {
		t.Fatal("early positions nonzero")
	}
	if w.virtualPos(6) != -5 || w.virtualPos(7) != 5 {
		t.Fatalf("virtual positions: %d %d", w.virtualPos(6), w.virtualPos(7))
	}
	if w.playbackPos(7) != 5 || w.playbackPos(15) != 85 {
		t.Fatalf("positions: %d %d", w.playbackPos(7), w.playbackPos(15))
	}
	if w.liveEdge(3) != 30 {
		t.Fatalf("live edge = %d", w.liveEdge(3))
	}
	// Rounds-based fallback when segments override is zero.
	cfg := smallConfig(20, ProfileCoolStreaming())
	cfg.PlaybackDelaySegments = 0
	w2, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w2.playbackPos(7) != 0 || w2.playbackPos(8) != 10 {
		t.Fatalf("fallback positions: %d %d", w2.playbackPos(7), w2.playbackPos(8))
	}
}

func TestStepSmokeAndSourceIngest(t *testing.T) {
	w, err := NewWorld(smallConfig(30, ProfileContinuStreaming()))
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, w.Config().Tau)
	engine.Run(3)
	src := w.Node(w.Source())
	// After 3 rounds the source holds segments 0..29.
	for id := segment.ID(0); id < 30; id++ {
		if !src.Buf.Has(id) {
			t.Fatalf("source missing segment %d", id)
		}
	}
	if w.Collector().Rounds() != 3 {
		t.Fatalf("collected %d rounds", w.Collector().Rounds())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		w, err := NewWorld(smallConfig(60, ProfileContinuStreaming()))
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.NewEngine(w, w.Config().Tau)
		engine.Run(15)
		return w.Collector().ContinuitySeries().Values
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDisseminationReachesEveryone(t *testing.T) {
	w, err := NewWorld(smallConfig(60, ProfileContinuStreaming()))
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, w.Config().Tau)
	engine.Run(25)
	// By round 25 (pos = 150), every node should hold most of the window
	// well behind the live edge.
	pos := w.playbackPos(24)
	holders := 0
	for _, id := range w.Nodes() {
		if w.Node(id).Buf.Has(pos) {
			holders++
		}
	}
	if holders < w.Size()*8/10 {
		t.Fatalf("only %d/%d nodes hold segment %d", holders, w.Size(), pos)
	}
}

func TestContinuityRampsUp(t *testing.T) {
	w, err := NewWorld(smallConfig(100, ProfileContinuStreaming()))
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, w.Config().Tau)
	engine.Run(30)
	series := w.Collector().ContinuitySeries()
	if series.Values[0] != 0 {
		t.Fatalf("round 0 continuity = %v", series.Values[0])
	}
	tail := series.TailMean(5)
	if tail < 0.5 {
		t.Fatalf("stable continuity = %v, system failed to form", tail)
	}
}

func TestBackupsPopulated(t *testing.T) {
	w, err := NewWorld(smallConfig(80, ProfileContinuStreaming()))
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, w.Config().Tau)
	engine.Run(20)
	total := 0
	for _, id := range w.Nodes() {
		total += len(backedUp(w.Node(id)))
	}
	if total == 0 {
		t.Fatal("no VoD backups stored anywhere")
	}
}
