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
	"continustreaming/internal/topology"
)

// PolicyKind selects the data scheduling discipline.
type PolicyKind int

// Scheduling disciplines. UrgencyRarity is ContinuStreaming's Algorithm 1
// ordering; RarestFirst is CoolStreaming's; the rest exist for ablations.
const (
	PolicyUrgencyRarity PolicyKind = iota
	PolicyRarestFirst
	PolicyRandom
	PolicyUrgencyOnly
	PolicyRarityOnly
)

// String names the policy for experiment output.
func (p PolicyKind) String() string {
	switch p {
	case PolicyUrgencyRarity:
		return "urgency-rarity"
	case PolicyRarestFirst:
		return "rarest-first"
	case PolicyRandom:
		return "random"
	case PolicyUrgencyOnly:
		return "urgency-only"
	case PolicyRarityOnly:
		return "rarity-only"
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
	// M is the target number of connected neighbours (paper default 5);
	// H the overheard-list capacity (paper default 20).
	M int
	H int
	// Stream is the media stream; BufferSegments is B.
	Stream         segment.Stream
	BufferSegments int
	// Tau is the scheduling period (paper: 1 s).
	Tau sim.Time
	// Bandwidth assigns inbound/outbound rates.
	Bandwidth bandwidth.Profile
	// Replicas is k (backup copies per segment); PrefetchLimit is l (max
	// pre-fetches per node per period).
	Replicas      int
	PrefetchLimit int
	// SpaceSize is the DHT ring size N; 0 selects the smallest power of
	// two >= max(8192, 2·Nodes).
	SpaceSize int
	// PlaybackDelayRounds is D: every node plays D scheduling periods
	// behind the live edge. The paper never states its startup buffering
	// delay; D is the one free parameter we calibrate (see DESIGN.md §6).
	PlaybackDelayRounds int
	// PlaybackDelaySegments overrides the delay at segment granularity
	// when positive (finer calibration than whole rounds); otherwise the
	// delay is PlaybackDelayRounds · Stream.Rate segments.
	PlaybackDelaySegments int
	// THop is the expected one-hop latency used by the α initialiser
	// (paper: ≈50 ms measured from its traces).
	THop sim.Time
	// Churn configures the dynamic environment (zero value = static).
	Churn churn.Config
	// Profile selects the system under test.
	Profile Profile
	// Seed drives all randomness.
	Seed uint64
	// Topology optionally supplies a pre-built trace graph; nil generates
	// one from Seed with the paper's augmentation applied.
	Topology *topology.Graph
	// LowSupplyThreshold is the segments/s below which a neighbour counts
	// as "supplied little data" and becomes replaceable (§4.1).
	LowSupplyThreshold float64
	// ReplaceCooldownRounds is the minimum spacing between two low-supply
	// replacements by the same node. Without it a node re-judges its
	// neighbours every period and keeps rewiring: each swap discards the
	// rate estimates both sides learned, which measurably destabilises the
	// mesh (scheduling quality drops and supplier drops double). A real
	// deployment pays connection setup costs that impose the same pacing.
	ReplaceCooldownRounds int
	// DHTRepairIntervalRounds is how often (in scheduling periods) every
	// node actively repairs its DHT peer levels — evicting dead entries
	// and refilling vacant arcs from alive members — so greedy routing
	// (and with it the pre-fetch continuity backstop) survives sustained
	// churn. 0 disables active repair and leaves only the passive
	// overheard-traffic renewal, the pre-repair behaviour.
	DHTRepairIntervalRounds int
	// MaxDistressReplacements caps how many low-supply neighbours a node
	// may swap out in a single round while its playback is in sustained
	// distress (two or more consecutive discontinuous rounds). Outside
	// distress the cap is 1, the paper's one-replacement-per-period rule;
	// 0 keeps the cap at 1 even under distress.
	MaxDistressReplacements int
	// SourceDegreeTarget is the connected-neighbour count maintenance
	// holds the source at (0 falls back to M). The source's outbound (100
	// segments/s against a 10 segments/s stream) is wasted behind an
	// M-sized neighbour set: every fresh segment's dissemination starts
	// from those first-generation holders, and under churn the epidemic
	// needs the wider birth fan-out to reach the whole mesh before the
	// playback deadline.
	SourceDegreeTarget int
	// SourceRescue lets a failed on-demand lookup fall back to a direct
	// request at the media source when it has spare outbound — the
	// retrieval path of last resort a real deployment always has. Without
	// it a segment whose k arc owners all churned away (or never received
	// it) is unrecoverable no matter how healthy routing is.
	SourceRescue bool
	// PushHops is H: how many mesh hops the fresh-segment push phase
	// eagerly forwards each newly generated segment before pull
	// scheduling takes over (profiles with Push set; 0 disables the
	// phase). Hop 1 is the source spraying its connected neighbours; hop
	// h+1 is every hop-h receiver forwarding onward. Each pusher spends
	// at most one period's outbound (its O) on pushing, charged against
	// the same ledger as its gossip serving.
	PushHops int
	// QueueFactor bounds the supplier-side carry queue: requests beyond
	// a supplier's per-round backlog horizon are carried to the next
	// round, at most QueueFactor·O of them (earliest deadlines kept,
	// later ones evicted). 0 disables queueing and restores drop-and-
	// retry.
	QueueFactor int
	// WarmupRounds is how long after joining a node is excluded from the
	// warm continuity metric (metrics.RoundSample.ContinuityWarm): a
	// joiner needs a round or two of catch-up before its misses say
	// anything about dissemination quality. It only affects reporting,
	// never scheduling.
	WarmupRounds int
	// RarityNoise perturbs rarity rankings per (node, segment) by up to
	// ±RarityNoise, standing in for the measurement heterogeneity of a
	// real deployment (see scheduler.Input.RarityNoise).
	RarityNoise float64
	// RoutingMessageBits is the wire size of one DHT routing message
	// (paper: 10 bytes = 80 bits).
	RoutingMessageBits int64
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
		M:                     d.M,
		H:                     d.H,
		Stream:                segment.DefaultStream(),
		BufferSegments:        d.BufferSegments,
		Tau:                   sim.Second,
		Bandwidth:             bandwidth.DefaultProfile(),
		Replicas:              d.Replicas,
		PrefetchLimit:         d.PrefetchLimit,
		PlaybackDelayRounds:   7,
		PlaybackDelaySegments: 65,
		THop:                  50 * sim.Millisecond,
		Profile:               ProfileContinuStreaming(),
		Seed:                  1,
		LowSupplyThreshold:    d.Maintenance.LowSupplyThreshold,
		ReplaceCooldownRounds: d.Maintenance.ReplaceCooldownRounds,
		RarityNoise:           d.RarityNoise,
		RoutingMessageBits:    80,

		DHTRepairIntervalRounds: d.DHTRepairIntervalRounds,
		MaxDistressReplacements: d.Maintenance.MaxDistressReplacements,
		SourceDegreeTarget:      d.SourceDegreeTarget,
		SourceRescue:            true,

		PushHops:     d.PushHops,
		QueueFactor:  d.QueueFactor,
		WarmupRounds: d.WarmupRounds,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("core: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.M <= 0 {
		return fmt.Errorf("core: non-positive M %d", c.M)
	}
	if err := c.Stream.Validate(); err != nil {
		return err
	}
	if c.Stream.Rate > 64 {
		return fmt.Errorf("core: stream rate %d exceeds 64 segments per round, the push planner's one-word frontier", c.Stream.Rate)
	}
	if c.BufferSegments <= 0 {
		return fmt.Errorf("core: non-positive buffer size %d", c.BufferSegments)
	}
	if c.Tau <= 0 {
		return fmt.Errorf("core: non-positive tau %v", c.Tau)
	}
	if err := c.Bandwidth.Validate(); err != nil {
		return err
	}
	if c.Replicas <= 0 || c.PrefetchLimit <= 0 {
		return fmt.Errorf("core: replicas %d and prefetch limit %d must be positive", c.Replicas, c.PrefetchLimit)
	}
	if c.PlaybackDelayRounds <= 0 {
		return fmt.Errorf("core: non-positive playback delay %d", c.PlaybackDelayRounds)
	}
	if c.THop <= 0 {
		return fmt.Errorf("core: non-positive t_hop %v", c.THop)
	}
	if err := c.Churn.Validate(); err != nil {
		return err
	}
	if c.RoutingMessageBits <= 0 {
		return fmt.Errorf("core: non-positive routing message size %d", c.RoutingMessageBits)
	}
	if c.PlaybackDelaySegments < 0 {
		return fmt.Errorf("core: negative playback delay %d segments", c.PlaybackDelaySegments)
	}
	if c.DHTRepairIntervalRounds < 0 {
		return fmt.Errorf("core: negative DHT repair interval %d", c.DHTRepairIntervalRounds)
	}
	if c.MaxDistressReplacements < 0 {
		return fmt.Errorf("core: negative distress replacement cap %d", c.MaxDistressReplacements)
	}
	if c.SourceDegreeTarget < 0 {
		return fmt.Errorf("core: negative source degree target %d", c.SourceDegreeTarget)
	}
	if c.PushHops < 0 {
		return fmt.Errorf("core: negative push hops %d", c.PushHops)
	}
	if c.QueueFactor < 0 {
		return fmt.Errorf("core: negative queue factor %d", c.QueueFactor)
	}
	if c.WarmupRounds < 0 {
		return fmt.Errorf("core: negative warmup rounds %d", c.WarmupRounds)
	}
	return nil
}

// ApplyKnobOverride maps the public override convention for the engine
// knobs onto a config field: positive overrides, zero keeps the default
// already in *dst, negative disables (sets 0). The public API, the
// experiment harness and the CLI all share it so the sentinel convention
// cannot silently diverge between entry points.
func ApplyKnobOverride(dst *int, override int) {
	if override > 0 {
		*dst = override
	} else if override < 0 {
		*dst = 0
	}
}

// delaySegments resolves the playback delay in segments.
func (c Config) delaySegments() int {
	if c.PlaybackDelaySegments > 0 {
		return c.PlaybackDelaySegments
	}
	return c.PlaybackDelayRounds * c.Stream.Rate
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
