// Package core assembles the substrates into the complete streaming
// system: per-node state machines (buffer, rate controller, urgent-line
// predictor, VoD backup) and the World, a bulk-synchronous simulation of
// the full overlay that executes the paper's scheduling periods phase by
// phase. Both ContinuStreaming and the CoolStreaming baseline run on the
// same World; they differ only in scheduling policy and whether the DHT
// pre-fetch path is enabled, which is exactly the comparison the paper
// makes.
package core

import (
	"fmt"
	"math/bits"

	"continustreaming/internal/bandwidth"
	"continustreaming/internal/churn"
	"continustreaming/internal/protocol"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// PolicyKind selects the data scheduling discipline.
type PolicyKind int

// Scheduling disciplines. UrgencyRarity is ContinuStreaming's Algorithm 1
// ordering; RarestFirst is CoolStreaming's.
const (
	PolicyUrgencyRarity PolicyKind = iota
	PolicyRarestFirst
)

// String names the policy for experiment output.
func (p PolicyKind) String() string {
	switch p {
	case PolicyUrgencyRarity:
		return "urgency-rarity"
	case PolicyRarestFirst:
		return "rarest-first"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Profile bundles the axes that distinguish the compared systems.
type Profile struct {
	Name     string
	Policy   PolicyKind
	Prefetch bool
	// Engine enables the dissemination engine: the fresh-segment push
	// phase (Config.PushHops), supplier-side earliest-deadline-first
	// service ordering, and bounded outbound queueing (Config.
	// QueueFactor). The three are one coordinated design — EDF service
	// without push seeding starves the frontier replication that keeps
	// new content multiplying (a measured death spiral, not a
	// hypothetical). The CoolStreaming baseline keeps the published
	// pure-pull discipline: fair-queued FIFO service and drop-and-retry,
	// so the comparison keeps measuring the protocol the paper compared
	// against.
	Engine bool
}

// ProfileContinuStreaming is the paper's system: combined urgency+rarity
// scheduling plus DHT-assisted on-demand retrieval, with the
// dissemination engine seeding and serving each epidemic.
func ProfileContinuStreaming() Profile {
	return Profile{Name: "ContinuStreaming", Policy: PolicyUrgencyRarity, Prefetch: true, Engine: true}
}

// ProfileCoolStreaming is the baseline: rarest-first pull gossip, no DHT,
// no dissemination engine.
func ProfileCoolStreaming() Profile {
	return Profile{Name: "CoolStreaming", Policy: PolicyRarestFirst, Prefetch: false}
}

// ProfileSchedulingOnly is ContinuStreaming's scheduler without the
// pre-fetch path — the PC_old configuration of the §5.1 table.
func ProfileSchedulingOnly() Profile {
	return Profile{Name: "ContinuStreaming-noprefetch", Policy: PolicyUrgencyRarity, Prefetch: false, Engine: true}
}

// Config fully describes one simulated system instance.
type Config struct {
	// Nodes is the overlay population, including the source.
	Nodes int
	// Params are the protocol parameters the livenet reads too.
	protocol.Params
	// H is the overheard-list capacity. The paper: "H = 20 is usually
	// enough according to our simulation experience."
	H int
	// Stream is the media stream; its Rate is p.
	Stream segment.Stream
	// Tau is the scheduling period (paper: 1 s).
	Tau sim.Time
	// Bandwidth assigns inbound/outbound rates; its MeanOut and SourceOut
	// are O.
	Bandwidth bandwidth.Profile
	// SpaceSize is the DHT ring size N; 0 selects the smallest power of
	// two >= max(8192, 2·Nodes).
	SpaceSize int
	// PlaybackDelayRounds is D: every node plays D scheduling periods
	// behind the live edge. The paper never states its startup buffering
	// delay; D is the one free parameter we calibrate (EXPERIMENTS.md
	// reports every figure at the calibrated value).
	PlaybackDelayRounds int
	// PlaybackDelaySegments overrides the delay at segment granularity
	// when positive (finer calibration than whole rounds); otherwise the
	// delay is PlaybackDelayRounds · Stream.Rate segments.
	PlaybackDelaySegments int
	// Churn configures the dynamic environment (zero value = static).
	Churn churn.Config
	// Profile selects the system under test.
	Profile Profile
	// Seed drives all randomness.
	Seed uint64
	// Workers caps the worker-pool width of the parallel round phases;
	// <= 0 selects GOMAXPROCS. The sharded pipeline's shard count is fixed
	// independently of this, so results are bit-identical for a fixed seed
	// at any setting — Workers is purely a throughput knob.
	Workers int
	// PhaseProbe, when set, is called at every phase boundary of Step:
	// once with each phase's name as it starts, and once with "" when the
	// round ends. The simulation itself never reads a clock (the
	// determinism contract bans host time under internal/), so wall-clock
	// phase profiling lives in the caller: cmd/continusim's -phaseprof
	// installs a probe that timestamps each call and charges the delta to
	// the previous phase. The probe is invoked from the sequential spine
	// of Step only, never from worker goroutines.
	PhaseProbe func(phase string)
}

// DefaultConfig returns the paper's §5.2 defaults for n nodes. Every
// protocol-level constant comes from protocol.Default() — the one source
// the livenet runtime derives from too, so the two runtimes cannot drift.
func DefaultConfig(n int) Config {
	d := protocol.Default()
	return Config{
		Nodes:                 n,
		Params:                d.Params,
		H:                     d.H,
		Stream:                segment.DefaultStream(),
		Tau:                   sim.Second,
		Bandwidth:             bandwidth.DefaultProfile(),
		PlaybackDelayRounds:   7,
		PlaybackDelaySegments: 65,
		Profile:               ProfileContinuStreaming(),
		Seed:                  1,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("core: need at least 2 nodes, got %d", c.Nodes)
	}
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.H <= 0 {
		return fmt.Errorf("core: non-positive overheard-list capacity %d", c.H)
	}
	if err := c.Stream.Validate(); err != nil {
		return err
	}
	if c.Stream.Rate > 64 {
		return fmt.Errorf("core: stream rate %d exceeds 64 segments per round, the push planner's one-word frontier", c.Stream.Rate)
	}
	if c.Tau <= 0 {
		return fmt.Errorf("core: non-positive tau %v", c.Tau)
	}
	if err := c.Bandwidth.Validate(); err != nil {
		return err
	}
	if c.PlaybackDelayRounds <= 0 {
		return fmt.Errorf("core: non-positive playback delay %d", c.PlaybackDelayRounds)
	}
	if err := c.Churn.Validate(); err != nil {
		return err
	}
	if c.PlaybackDelaySegments < 0 {
		return fmt.Errorf("core: negative playback delay %d segments", c.PlaybackDelaySegments)
	}
	if c.fetchSpan() > c.BufferSegments {
		// The window opens at the playback position, so a longer delay
		// leaves the live edge past the buffer: the source never takes
		// it in, and playback stops once it reaches the gap.
		return fmt.Errorf("core: playback delay %d segments plus one round's %d exceeds the %d-segment buffer",
			c.delaySegments(), c.Stream.Rate, c.BufferSegments)
	}
	return nil
}

// delaySegments resolves the playback delay in segments.
func (c Config) delaySegments() int {
	if c.PlaybackDelaySegments > 0 {
		return c.PlaybackDelaySegments
	}
	return c.PlaybackDelayRounds * c.Stream.Rate
}

// fetchSpan is fetchEdge(r) − playbackPos(r) once playback has begun: the
// IDs a node can request, pre-fetch, tag or take in during a round, and
// the span its segment tracker opens on. Before playback the clamped
// position leaves the span shorter.
func (c Config) fetchSpan() int {
	return c.delaySegments() + c.Stream.Rate
}

// spaceSize resolves the DHT ring size.
func (c Config) spaceSize() int {
	if c.SpaceSize > 0 {
		return c.SpaceSize
	}
	n := 8192
	for n < 2*c.Nodes {
		n <<= 1
	}
	// Guard against pathological configs overflowing; powers of two only.
	if bits.OnesCount(uint(n)) != 1 {
		panic("core: computed space size not a power of two")
	}
	return n
}
