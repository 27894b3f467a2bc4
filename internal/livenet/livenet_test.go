package livenet

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"continustreaming/internal/sim"
)

// TestDefaultConfig pins the values a default live session resolves to,
// recorded before the config refactor of PR 16: a change to a default —
// shared or livenet-only — has to show up here as a changed number.
func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"M", float64(cfg.M), 5},
		{"source degree", float64(cfg.DegreeTarget(true)), 10},
		{"peer degree", float64(cfg.DegreeTarget(false)), 5},
		{"replacement cooldown", float64(cfg.Maintenance.ReplaceCooldownRounds), 4},
		{"playback lag", float64(cfg.PlaybackLagPeriods), 6},
		{"retry window", float64(cfg.RetryPeriods), 2},
		{"dead-after", float64(cfg.DeadAfterPeriods), 3},
		{"p", float64(cfg.Rate), 10},
		{"B", float64(cfg.BufferSegments), 600},
		{"O", float64(cfg.OutboundPerPeriod), 15},
		{"source O", float64(cfg.SourceOutbound), 100},
		{"push hops", float64(cfg.PushHops), 2},
		{"queue factor", float64(cfg.QueueFactor), 2},
		{"k", float64(cfg.Replicas), 4},
		{"l", float64(cfg.PrefetchLimit), 5},
		{"rarity noise", cfg.RarityNoise, 0.3},
		{"low-supply threshold", cfg.Maintenance.LowSupplyThreshold, 1},
		{"distress cap", float64(cfg.Maintenance.MaxDistressReplacements), 3},
		{"t_hop (ms)", float64(cfg.THop / sim.Millisecond), 50},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestConfigValidateRejects: every parameter a session cannot run on is
// an error at the boundary (NewNode, RunLive), not a ticker panic or a
// silent default further in.
func TestConfigValidateRejects(t *testing.T) {
	bad := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative peers", func(c *Config) { c.Peers = -1 }},
		{"zero period", func(c *Config) { c.Period = 0 }},
		{"zero rate", func(c *Config) { c.Rate = 0 }},
		{"zero buffer", func(c *Config) { c.BufferSegments = 0 }},
		{"zero outbound", func(c *Config) { c.OutboundPerPeriod = 0 }},
		{"zero source uplink", func(c *Config) { c.SourceOutbound = 0 }},
		{"zero lag", func(c *Config) { c.PlaybackLagPeriods = 0 }},
		{"zero dead-after", func(c *Config) { c.DeadAfterPeriods = 0 }},
		{"zero retry", func(c *Config) { c.RetryPeriods = 0 }},
		{"negative push hops", func(c *Config) { c.PushHops = -1 }},
		{"negative queue", func(c *Config) { c.QueueFactor = -1 }},
		{"zero M", func(c *Config) { c.M = 0 }},
		{"zero replicas", func(c *Config) { c.Replicas = 0 }},
		{"zero source degree", func(c *Config) { c.SourceDegreeTarget = 0 }},
		{"negative distress", func(c *Config) { c.Maintenance.MaxDistressReplacements = -1 }},
		{"zero t_hop", func(c *Config) { c.THop = 0 }},
		{"zero prefetch limit", func(c *Config) { c.PrefetchLimit = 0 }},
		{"audience past the ring", func(c *Config) {
			c.Peers, c.Churn = maxReceivers-3, []ChurnEvent{{Period: 5, Join: 2}, {Period: 9, Join: 2}}
		}},
		{"negative kill fraction", func(c *Config) { c.Churn = []ChurnEvent{{Period: 5, KillFraction: -0.1}} }},
		{"kill fraction past one", func(c *Config) { c.Churn = []ChurnEvent{{Period: 5, KillFraction: 1.5}} }},
		{"NaN kill fraction", func(c *Config) { c.Churn = []ChurnEvent{{Period: 5, KillFraction: math.NaN()}} }},
		{"negative join", func(c *Config) { c.Churn = []ChurnEvent{{Period: 5, Join: -1}} }},
		{"churn at a negative period", func(c *Config) { c.Churn = []ChurnEvent{{Period: -1, Join: 1}} }},
	}
	for _, c := range bad {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "livenet: ") {
			t.Errorf("%s: error %q lacks the livenet: prefix", c.name, err)
		}
		if _, nerr := NewNode(cfg, NodeConfig{ID: 0, Listen: "127.0.0.1:0", Source: true}); nerr == nil {
			t.Errorf("%s: NewNode accepted", c.name)
		}
	}
	// Engine knobs at 0 mean "off" and stay valid.
	off := DefaultConfig()
	off.PushHops, off.QueueFactor, off.Peers = 0, 0, 0
	if err := off.Validate(); err != nil {
		t.Fatalf("push/queue off rejected: %v", err)
	}
	// Receivers and joiners that fill the ring exactly fit it.
	full := DefaultConfig()
	full.Peers, full.Churn = maxReceivers-4, []ChurnEvent{{Period: 5, Join: 2}, {Period: 9, Join: 2}}
	if err := full.Validate(); err != nil {
		t.Fatalf("an audience that fills the ring rejected: %v", err)
	}
}

func TestLiveSessionDeliversAndPlays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 12
	cfg.Period = 5 * time.Millisecond
	cfg.Seed = 3
	st := Run(context.Background(), cfg, 30)
	if st.Periods != 30 {
		t.Fatalf("ran %d periods", st.Periods)
	}
	if st.Delivered == 0 {
		t.Fatal("no segments delivered over the live mesh")
	}
	// The live runtime demonstrates the protocol over real message
	// passing; at millisecond periods the scheduler's timing
	// assumptions are much tighter than the calibrated simulation, so the
	// bar here is liveness (meaningful fraction of continuous plays), not
	// the paper's calibrated continuity.
	if st.Continuity < 0.1 {
		t.Fatalf("continuity = %v", st.Continuity)
	}
	if st.PushDelivered == 0 {
		t.Fatal("dissemination engine ran but no push deliveries landed")
	}
}

func TestLiveSessionHonoursContext(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 6
	cfg.Period = 5 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := Run(ctx, cfg, 1000)
	if st.Periods >= 1000 {
		t.Fatal("cancelled session ran to completion")
	}
}

// TestLiveChurnRecovery is the port's acceptance scenario: kill ~30% of
// the peers mid-session and assert that mesh repair replaces the dead
// neighbours (no links to corpses remain when the session drains) and
// that playback continuity recovers in the tail.
func TestLiveChurnRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 30
	cfg.Seed = 7
	cfg.Churn = []ChurnEvent{{Period: 24, KillFraction: 0.3}}
	st := runStepped(cfg, 70)
	if st.Killed == 0 {
		t.Fatal("churn script applied no kills")
	}
	if st.DeadDropped == 0 {
		t.Fatal("no dead neighbour links were dropped — mesh repair never ran")
	}
	if st.EndDeadLinks != 0 {
		t.Fatalf("%d links to dead peers survived the session — repair did not keep up", st.EndDeadLinks)
	}
	// Recovery: the tail (well after the kill) must play substantially
	// continuously again. The tail sits near 1.0; the bar is a liveness
	// bar, not this seed's number.
	if tail := st.TailContinuity(10); tail < 0.5 {
		t.Fatalf("tail continuity %.3f after churn; full trace %v", tail, st.PerPeriod)
	}
}

// TestLiveRepairCounterfactual pins why the repair pipeline exists: with
// Repair off, the kill leaves dangling links for the rest of the session.
func TestLiveRepairCounterfactual(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 20
	cfg.Seed = 11
	cfg.Repair = false
	cfg.Churn = []ChurnEvent{{Period: 12, KillFraction: 0.3}}
	st := runStepped(cfg, 30)
	if st.Killed == 0 {
		t.Fatal("churn script applied no kills")
	}
	if st.EndDeadLinks == 0 {
		t.Fatal("repair disabled yet no dead links remained — the counterfactual lost its teeth")
	}
}

// TestLiveJoinsWireUp asserts the rendezvous join path: scripted joiners
// end up connected and the session keeps playing.
func TestLiveJoinsWireUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 12
	cfg.Seed = 5
	cfg.Churn = []ChurnEvent{{Period: 10, Join: 4}}
	st := runStepped(cfg, 30)
	if st.Joined != 4 {
		t.Fatalf("joined %d, want 4", st.Joined)
	}
	if st.Delivered == 0 || st.Continuity <= 0 {
		t.Fatalf("session did not keep playing: %+v", st)
	}
}
