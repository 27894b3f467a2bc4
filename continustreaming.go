// Package continustreaming is the public entry point to this reproduction
// of "ContinuStreaming: Achieving High Playback Continuity of Gossip-based
// Peer-to-Peer Streaming" (Li, Cao, Chen — IEEE IPDPS 2008).
//
// The package re-exports the two runtimes' own configurations — there is
// no second config layer to translate. Config is the simulator's, LiveConfig
// the live runtime's; DefaultConfig and DefaultLiveConfig return the
// paper's §5.2 parameter table and are the only defaults mechanism: a field
// holds the value the run uses, a zero is a zero.
//
//	cfg := continustreaming.DefaultConfig(1000)
//	res, err := continustreaming.Run(cfg, 40)
//	fmt.Println(res.StableContinuity)
//
// Named scenario constructors (ScenarioHetDynamic, ScenarioFlashcrowd,
// …) build the configurations the evaluation runs; RunContext adds
// cooperative cancellation at round boundaries and a per-round hook that
// streams metrics while a long run progresses:
//
//	cfg := continustreaming.ScenarioFlashcrowd(100_000)
//	res, err := continustreaming.RunContext(ctx, cfg, 40, func(s continustreaming.Snapshot) {
//		log.Printf("round %d continuity %.3f", s.Round, s.Continuity())
//	})
//
// # Systems
//
// Config.Profile selects the system under test: ContinuStreaming (the
// paper's full design), ContinuStreamingNoPrefetch (its scheduler without
// DHT retrieval, the §5.1 table's PC_old) or CoolStreaming (the pull-only
// baseline). Config.Churn is the membership model: its zero value is the
// static environment, the Scenario*Dynamic constructors set the paper's 5%
// leaves + 5% joins per scheduling period, and Config.Churn.Trace replaces
// those fixed fractions with a per-round schedule (ExponentialChurn,
// ParetoChurn, DiurnalChurn, ReadChurnTrace).
//
// # Dissemination engine
//
// The two ContinuStreaming profiles include the dissemination engine, three
// coordinated supplier-side mechanisms that let a segment reach the whole
// mesh within the playback delay at 8000+ nodes, where a pure-pull
// epidemic runs out of doubling rounds:
//
//   - Fresh-segment push: the source and its first-generation holders
//     eagerly forward each newly generated segment along mesh edges for
//     its first Config.PushHops hops (2 by default; 0 is pull-only), so
//     pull scheduling starts from dozens of seeded copies instead of one.
//   - Supplier-side service ordering: a contended supplier serves
//     requests earliest-deadline-first with a rarest-first tie-break
//     computed from its own neighbours' buffer maps, instead of
//     requester-order FIFO.
//   - Outbound queueing: requests beyond a supplier's per-round backlog
//     horizon are carried in a bounded queue (Config.QueueFactor × outbound
//     rate entries, 2 by default; 0 is drop-and-retry) to the next round,
//     with deadline-based eviction.
//
// The CoolStreaming baseline deliberately runs without the engine — the
// comparison keeps measuring the protocol the paper compared against.
// Result.ContinuityWarm reports continuity excluding nodes still inside
// their post-join warm-up (joiner ramp-up drag).
//
// # Live runtime
//
// RunLive executes the same protocol over real message passing — peers
// exchanging protocol messages, a wall-clock ticker as the scheduling
// period — driving the identical transport-agnostic decision
// core (internal/protocol) the simulator uses: mesh repair under churn,
// fresh-segment push and EDF serving; its rescue asks a ring-hashed peer
// for a buffered segment (no VoD backup; EXPERIMENTS.md "Livenet ring").
// LiveConfig.Churn scripts a kill/join session; this is the in-process
// repro of the paper's planned real-network validation, run on the
// caller's goroutine with messages handled in send order, so a seed
// replays the same session at any pace. A LiveNode with
// Listen set switches to the multi-process socket path: the process runs
// one peer over UDP, bootstrapping through the rendezvous point at
// LiveNode.Bootstrap (see cmd/livenode for the per-process binary and
// examples/multiproc for a whole-session driver).
//
// See cmd/continusim for the full experiment driver, examples/ for runnable
// scenarios, and EXPERIMENTS.md for paper-versus-measured results.
package continustreaming

import (
	"context"
	"fmt"
	"io"

	"continustreaming/internal/churn"
	"continustreaming/internal/core"
	"continustreaming/internal/experiment"
	"continustreaming/internal/livenet"
	"continustreaming/internal/metrics"
	"continustreaming/internal/theory"
)

// The simulator's types, re-exported: what a caller sets here is what the
// world is built from.
type (
	// Config fully describes one simulated system instance. Start from
	// DefaultConfig or a Scenario constructor.
	Config = core.Config
	// Profile is the system under test (Config.Profile).
	Profile = core.Profile
	// Snapshot is one round's raw counters, with the paper's §5.3 metrics
	// as methods (Continuity, ContinuityWarm, ControlOverhead,
	// PrefetchOverhead) — what RunContext's per-round hook receives.
	Snapshot = metrics.RoundSample
	// Result is one completed run: the per-round series of the paper's
	// metrics and their stable-phase means.
	Result = experiment.RunResult
	// ChurnTrace is a per-round membership schedule for dynamic runs
	// (Config.Churn.Trace): leave and join fractions for every scheduling
	// period, derived from a session-length distribution or loaded from a
	// cmd/tracegen churn trace.
	ChurnTrace = churn.TraceModel
)

// The three systems of the evaluation: the paper's full design, its
// scheduler without DHT retrieval (PC_old), and the CoolStreaming baseline.
var (
	ContinuStreaming           = core.ProfileContinuStreaming
	ContinuStreamingNoPrefetch = core.ProfileSchedulingOnly
	CoolStreaming              = core.ProfileCoolStreaming
)

// DefaultConfig returns the paper's §5.2 configuration for n nodes: the
// full system in the static heterogeneous environment.
func DefaultConfig(n int) Config { return core.DefaultConfig(n) }

// ExponentialChurn models memoryless sessions with the given mean length
// in scheduling periods — the trace-driven equivalent of the paper's
// uniform model. It panics on non-physical parameters (rounds <= 0 or a
// non-positive mean): the arguments are model constants, not runtime
// input, so a bad value is a programming error.
func ExponentialChurn(rounds int, meanSessionRounds float64) *ChurnTrace {
	return churn.ExponentialTrace(rounds, meanSessionRounds)
}

// ParetoChurn models heavy-tailed session lengths (shape alpha > 1,
// minimum session length in rounds): a flood of short-lived peers over a
// stable long-lived core, the signature of measured P2P deployments.
// Like ExponentialChurn it panics on non-physical parameters (alpha <= 1
// or minSessionRounds <= 0); validate user-supplied values first.
func ParetoChurn(rounds int, alpha, minSessionRounds float64) *ChurnTrace {
	return churn.ParetoTrace(rounds, alpha, minSessionRounds)
}

// DiurnalChurn models a day-night audience swing between base and peak
// leave fractions over period rounds, with an optional correlated flash
// departure of flashFraction at flashRound (-1 for none). Like the other
// trace constructors it panics on non-physical parameters (period <= 0,
// fractions outside 0 <= base <= peak < 1, flashFraction outside [0,1)).
func DiurnalChurn(rounds, period int, base, peak float64, flashRound int, flashFraction float64) *ChurnTrace {
	return churn.DiurnalTrace(rounds, period, base, peak, flashRound, flashFraction)
}

// ReadChurnTrace parses a churn trace in the plain-text format emitted by
// cmd/tracegen -churn.
func ReadChurnTrace(r io.Reader) (*ChurnTrace, error) {
	return churn.ReadTrace(r)
}

// Run executes the configured system for the given number of scheduling
// periods (the paper's tracks use 30-40) and returns its metrics. It is
// RunContext with a background context and no per-round hook.
func Run(cfg Config, rounds int) (Result, error) {
	return RunContext(context.Background(), cfg, rounds, nil)
}

// RunContext is Run with cooperative cancellation and a progress hook.
// The context is checked at every round boundary, and when it is
// cancelled the run stops after the round in flight, returning the
// metrics of the rounds that did complete alongside the context's error.
// A run cut short this way is a valid prefix — its per-round series are
// bit-identical to the first rounds of an uninterrupted run with the same
// Config. onRound, when non-nil, is called after every completed
// scheduling period with that round's snapshot (progress bars, early
// convergence detection, streaming dashboards). It runs synchronously on
// the simulation goroutine, so an expensive callback slows the run, and it
// does not affect the simulation: results are bit-identical with or
// without it. The Result's Stable* means cover the final quarter of the
// requested rounds.
func RunContext(ctx context.Context, cfg Config, rounds int, onRound func(Snapshot)) (Result, error) {
	return experiment.Run(ctx, cfg, rounds, max(rounds/4, 1), onRound)
}

// The live runtime's types, re-exported like the simulator's.
type (
	// LiveConfig parameterises a live (message-passing, wall-clock paced)
	// run of the protocol. Start from DefaultLiveConfig; LiveConfig.Churn
	// scripts kill and join events for in-process sessions.
	LiveConfig = livenet.Config
	// LiveChurnEvent is one scripted membership change of LiveConfig.Churn.
	LiveChurnEvent = livenet.ChurnEvent
	// LiveNode places one peer of a multi-process session on a UDP socket.
	// Its zero value selects the in-process runtime.
	LiveNode = livenet.NodeConfig
	// LiveStats summarises a finished live session (or, on the socket
	// path, this node's share of it).
	LiveStats = livenet.Stats
)

// DefaultLiveConfig returns a laptop-friendly live session on the shared
// protocol defaults, the same source the simulator derives from.
func DefaultLiveConfig() LiveConfig { return livenet.DefaultConfig() }

// RunLive executes the protocol over real message passing for the given
// number of periods, with the same internal/protocol decision core as the
// simulator (mesh repair, push, EDF serving; a rescue asks a ring-hashed
// peer for a buffered segment). With a zero node it hosts the whole
// session in-process on the calling goroutine: messages queue in send
// order and are handled between phase calls, and cfg.Churn scripts kills
// and joins. With node.Listen set this process runs ONE
// peer bound to that UDP address instead — messages cross real process
// boundaries as wire-encoded datagrams, membership comes from the
// rendezvous bootstrap and gossip, and churn happens by processes dying.
// It blocks until the session drains or ctx is cancelled.
func RunLive(ctx context.Context, cfg LiveConfig, node LiveNode, periods int) (LiveStats, error) {
	if periods <= 0 {
		return LiveStats{}, fmt.Errorf("continustreaming: non-positive period count %d", periods)
	}
	if node.Listen != "" {
		if len(cfg.Churn) > 0 {
			return LiveStats{}, fmt.Errorf("continustreaming: churn scripts apply to in-process sessions, not a single socket-path node")
		}
		n, err := livenet.NewNode(cfg, node)
		if err != nil {
			return LiveStats{}, err
		}
		return n.Run(ctx, periods)
	}
	if node.Shape != "" {
		return LiveStats{}, fmt.Errorf("continustreaming: traffic shaping applies to the socket path; set Listen")
	}
	for _, ev := range cfg.Churn {
		// Rejected rather than silently skipped: the driver only consults
		// the churn script for periods 1..periods-1, so an out-of-range
		// event would simply never happen.
		if ev.Period <= 0 || ev.Period >= periods {
			return LiveStats{}, fmt.Errorf("continustreaming: churn event at period %d outside session (1..%d)", ev.Period, periods-1)
		}
	}
	// livenet.Run has no error return; NewNode above validates for itself.
	if err := cfg.Validate(); err != nil {
		return LiveStats{}, err
	}
	return livenet.Run(ctx, cfg, periods), nil
}

// TheoreticalContinuity evaluates the paper's §5.1 Poisson model: the
// playback continuity without (PC_old) and with (PC_new) DHT-assisted
// on-demand retrieval, for arrival rate lambda segments/s, playback rate p
// segments/s, scheduling period tau seconds and k backup replicas.
func TheoreticalContinuity(lambda float64, p int, tau float64, k int) (pcOld, pcNew float64, err error) {
	m := theory.ContinuityModel{Lambda: lambda, PlaybackRate: p, TauSeconds: tau, Replicas: k}
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	return m.PCOld(), m.PCNew(), nil
}
