package livenet

import (
	"fmt"
	"time"

	"continustreaming/internal/protocol"
	"continustreaming/internal/segment"
)

// Config parameterises a live session: the protocol parameters shared
// with the simulator (the embedded protocol.Params, so cfg.M or
// cfg.PushHops is the same field in both runtimes) plus what only a
// wall-clock runtime needs. DefaultConfig is the one defaults mechanism;
// a zero field is a zero, not a request for the default.
type Config struct {
	protocol.Params
	// Peers is the number of receivers (the source is extra).
	Peers int
	// Period is the real-time scheduling period (scaled-down τ).
	Period time.Duration
	// Rate is p in segments per period. The push frontier is one 64-bit
	// word: of a wider period only the first 64 segments are push-seeded,
	// the rest spread by pull.
	Rate int
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
	// DeadAfterPeriods is how many silent periods (no buffer-map
	// announcement) make a neighbour presumed dead. Mesh repair then
	// drops and replaces it.
	DeadAfterPeriods int
	// RetryPeriods is how many periods an in-flight pull or rescue stays
	// pending before the peer re-asks. On a shaped link whose round trip
	// exceeds a period, widen it so a slow-but-arriving grant is not
	// double-requested; under heavy loss keep it tight so dropped grants
	// re-fire quickly.
	RetryPeriods int
	// Engine enables the dissemination engine (push + EDF serve + carry
	// queues); off, suppliers keep the published pull-only round-robin
	// discipline. Repair enables mesh repair and the rescue path (a
	// ring-hashed peer asked for a buffered segment; EXPERIMENTS.md
	// "Livenet ring"). Both default on; the EXPERIMENTS kill-scenario
	// comparison turns them off one at a time.
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

// DefaultConfig returns a laptop-friendly live session on the shared
// protocol defaults. The two shared parameters the livenet runs at a
// different value are set here and nowhere else.
func DefaultConfig() Config {
	d := protocol.Default()
	cfg := Config{
		Params:             d.Params,
		Peers:              24,
		Period:             50 * time.Millisecond,
		Rate:               d.Rate,
		OutboundPerPeriod:  d.OutboundPerPeriod,
		SourceOutbound:     d.SourceOutbound,
		PlaybackLagPeriods: 6,
		DeadAfterPeriods:   3,
		RetryPeriods:       2,
		Engine:             true,
		Repair:             true,
		Seed:               1,
	}
	// The root's edges are where fresh segments enter the mesh; the
	// livenet holds 2·M of them where the simulator holds 20.
	cfg.SourceDegreeTarget = 2 * cfg.M
	// The replacement cooldown is shortened to the livenet's faster
	// period scale.
	cfg.Maintenance.ReplaceCooldownRounds = 4
	return cfg
}

// Validate reports the first parameter a session cannot run on.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("livenet: %w", err)
	}
	joins := 0 // in-process IDs go out in order: joiners need ring positions too
	for _, ev := range c.Churn {
		switch {
		case ev.Period < 0:
			return fmt.Errorf("livenet: churn event at negative period %d", ev.Period)
		case !(ev.KillFraction >= 0 && ev.KillFraction <= 1): // NaN too
			return fmt.Errorf("livenet: churn kill fraction %v outside [0, 1]", ev.KillFraction)
		case ev.Join < 0:
			return fmt.Errorf("livenet: churn event joins %d peers", ev.Join)
		}
		joins += ev.Join
	}
	switch {
	case c.Peers < 0:
		return fmt.Errorf("livenet: negative audience size %d", c.Peers)
	case c.Peers > maxReceivers-joins:
		return fmt.Errorf("livenet: %d peers and %d joiners exceed the rescue ring's %d receivers", c.Peers, joins, maxReceivers)
	case c.Period <= 0:
		return fmt.Errorf("livenet: non-positive period %v", c.Period)
	case c.Rate <= 0:
		return fmt.Errorf("livenet: non-positive rate %d", c.Rate)
	case c.OutboundPerPeriod <= 0 || c.SourceOutbound <= 0:
		return fmt.Errorf("livenet: outbound %d and source outbound %d must be positive", c.OutboundPerPeriod, c.SourceOutbound)
	case c.PlaybackLagPeriods <= 0:
		return fmt.Errorf("livenet: non-positive playback lag %d", c.PlaybackLagPeriods)
	case c.DeadAfterPeriods <= 0:
		return fmt.Errorf("livenet: non-positive dead-after bound %d", c.DeadAfterPeriods)
	case c.RetryPeriods <= 0:
		return fmt.Errorf("livenet: non-positive retry window %d", c.RetryPeriods)
	}
	return nil
}

// fitAudience bounds M by the audience: a peer can hold at most Peers
// distinct links (the source plus every other receiver), and an M above
// that would spin the bootstrap wiring forever looking for a neighbour
// that cannot exist.
func (c Config) fitAudience() Config {
	c.M = min(c.M, c.Peers)
	return c
}

// sightTTL is how many periods hearsay about a peer stays evidence that it
// exists — an overheard adoption candidate, an address-book entry:
// comfortably wider than the direct-neighbour silence bound so gossip
// reach outlives a couple of dropped announcements, but finite so departed
// (or fabricated) IDs age out.
func (c Config) sightTTL() int { return 3 * c.DeadAfterPeriods }

// posFor is the playback position at an absolute session period.
func (c Config) posFor(period int) segment.ID {
	if lag := c.PlaybackLagPeriods; period >= lag {
		return segment.ID((period - lag) * c.Rate)
	}
	return 0
}
