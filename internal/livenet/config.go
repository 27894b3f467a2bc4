package livenet

import (
	"time"

	"continustreaming/internal/protocol"
)

// Config parameterises a live session. Protocol constants default from
// protocol.Default() — the same source the simulator's core.DefaultConfig
// derives from — so the two runtimes cannot drift apart on M, p, B, O or
// the engine knobs.
type Config struct {
	// Peers is the number of receivers (the source is extra).
	Peers int
	// Neighbors is M, the connected-neighbour target maintenance refills
	// toward.
	Neighbors int
	// SourceDegree is the degree protection held at the source (0 falls
	// back to 2·Neighbors): the root's edges are where fresh segments
	// enter the mesh.
	SourceDegree int
	// Period is the real-time scheduling period (scaled-down τ).
	Period time.Duration
	// Rate is p in segments per period. The push frontier is one 64-bit
	// word: of a wider period only the first 64 segments are push-seeded,
	// the rest spread by pull.
	Rate int
	// BufferSegments is B.
	BufferSegments int
	// OutboundPerPeriod bounds how many segments a peer serves per period
	// (O); the backlog horizon and carry queue scale from it exactly as
	// in the simulator.
	OutboundPerPeriod int
	// SourceOutbound bounds the source's serving capacity (the paper's
	// source has a much fatter uplink, O = 100).
	SourceOutbound int
	// PlaybackLagPeriods is how many periods playback trails the live
	// edge; real message passing needs a few periods of pipeline.
	PlaybackLagPeriods int
	// PushHops is the dissemination engine's fresh-segment push depth:
	// the source sprays each new segment to its neighbours, and receivers
	// forward it on for PushHops-1 more hops. 0 disables the push.
	PushHops int
	// QueueFactor bounds the supplier-side carry queue at QueueFactor ×
	// OutboundPerPeriod requests; 0 disables queueing (drop-and-retry).
	QueueFactor int
	// Replicas is k, the backup copies per segment on the rescue ring.
	Replicas int
	// RescueLimit caps DHT-backed rescues per peer per period (the
	// paper's l).
	RescueLimit int
	// DeadAfterPeriods is how many silent periods (no buffer-map
	// announcement) make a neighbour presumed dead. Mesh repair then
	// drops and replaces it.
	DeadAfterPeriods int
	// RetryPeriods is how many periods an in-flight pull or rescue stays
	// pending before the peer re-asks (0 = the default 2). On a shaped
	// link whose round trip exceeds a period, widen it so a slow-but-
	// arriving grant is not double-requested; under heavy loss keep it
	// tight so dropped grants re-fire quickly.
	RetryPeriods int
	// Resync enables continuous clock re-sync on the socket path: every
	// wire message carries the sender's period stamp, and a node that
	// finds itself behind the newest stamp at a tick jumps its period
	// counter forward (and re-phases its ticker). Without it a node's
	// clock is synced exactly once, by the bootstrap handshake — the PR 5
	// drift gap. DefaultConfig enables it; the in-process channel driver
	// ignores it (one loop drives every peer's clock).
	Resync bool
	// LowSupplyThreshold overrides the shared low-supply replacement
	// threshold (segments/period below which a struggling peer may swap
	// a neighbour out): 0 keeps the protocol default, negative disables
	// low-supply replacement entirely (dead-neighbour repair still
	// runs). ReplaceCooldownPeriods spaces successive replacements by
	// the same peer (0 keeps the livenet default).
	LowSupplyThreshold     float64
	ReplaceCooldownPeriods int
	// Engine enables the dissemination engine (push + EDF serve + carry
	// queues); off, suppliers keep the published pull-only round-robin
	// discipline. Repair enables mesh repair and the DHT rescue path.
	// Both default on; the EXPERIMENTS kill-scenario comparison turns
	// them off one at a time.
	Engine bool
	Repair bool
	// Churn scripts membership events the driver applies at period
	// boundaries; nil runs a static session.
	Churn []ChurnEvent
	// Seed drives topology and policy randomness.
	Seed uint64
}

// ChurnEvent is one scripted membership change: at the start of period
// Period, kill KillFraction of the alive non-source peers (abrupt
// failures — no goodbye, neighbours discover the silence) and admit Join
// newcomers through the rendezvous path.
type ChurnEvent struct {
	Period       int
	KillFraction float64
	Join         int
}

// DefaultConfig returns a laptop-friendly live session wired to the
// shared protocol defaults.
func DefaultConfig() Config {
	d := protocol.Default()
	return Config{
		Peers:              24,
		Neighbors:          d.M,
		SourceDegree:       2 * d.M,
		Period:             50 * time.Millisecond,
		Rate:               d.Rate,
		BufferSegments:     d.BufferSegments,
		OutboundPerPeriod:  d.OutboundPerPeriod,
		SourceOutbound:     d.SourceOutbound,
		PlaybackLagPeriods: 6,
		PushHops:           d.PushHops,
		QueueFactor:        d.QueueFactor,
		Replicas:           d.Replicas,
		RescueLimit:        d.PrefetchLimit,
		DeadAfterPeriods:   3,
		Engine:             true,
		Repair:             true,
		Resync:             true,
		Seed:               1,
	}
}

// retryPeriods resolves the pending-window default.
func (c Config) retryPeriods() int {
	if c.RetryPeriods > 0 {
		return c.RetryPeriods
	}
	return 2
}

// maintenanceTuning maps the shared defaults onto the per-period rewire
// decision; the cooldown is shortened to livenet's faster period scale.
func (c Config) maintenanceTuning() protocol.MaintenanceTuning {
	d := protocol.Default()
	t := protocol.MaintenanceTuning{
		LowSupplyThreshold:      d.Maintenance.LowSupplyThreshold,
		ReplaceCooldownRounds:   4,
		MaxDistressReplacements: d.Maintenance.MaxDistressReplacements,
	}
	if c.LowSupplyThreshold > 0 {
		t.LowSupplyThreshold = c.LowSupplyThreshold
	} else if c.LowSupplyThreshold < 0 {
		t.LowSupplyThreshold = 0
	}
	if c.ReplaceCooldownPeriods > 0 {
		t.ReplaceCooldownRounds = c.ReplaceCooldownPeriods
	}
	return t
}

// sourceDegree resolves the source's degree target.
func (c Config) sourceDegree() int {
	if c.SourceDegree > 0 {
		return c.SourceDegree
	}
	return 2 * c.Neighbors
}

// inboxCap sizes a peer's inbox from that peer's own fan-in, not from the
// population. Per period a peer hears one map per neighbour (adoption is
// bidirectional, so a degree runs to about twice its target), no more
// asks than it could grant or carry (its 2·O backlog horizon — what lies
// beyond is evicted on arrival anyway), and the data it asked for (its
// inbound budget O, plus the pushes and rescues riding the same link).
// Two periods' worth absorbs an inbox loop that is scheduled late. The
// source doubles as rendezvous point, so it also takes a Connect from
// every joiner of a bootstrap burst. Stats.TransportDropped counts what
// overflows.
func (c Config) inboxCap(isSource bool) int {
	degree, out, burst := c.Neighbors, c.OutboundPerPeriod, 0
	if isSource {
		degree, out, burst = c.sourceDegree(), c.SourceOutbound, c.Peers
	}
	perPeriod := 2*degree + 2*out + c.OutboundPerPeriod + c.RescueLimit
	return max(64, 2*perPeriod+burst)
}
