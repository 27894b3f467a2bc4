package protocol

import (
	"fmt"

	"continustreaming/internal/bandwidth"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// Params is the protocol parameter set both runtimes read. core.Config
// and livenet.Config embed it by value, so cfg.M or cfg.PushHops is the
// same field in the simulator, the livenet, the parity tests and the two
// CLIs, and a new shared knob is one field here. A parameter belongs in
// Params only if both runtimes read it; what one runtime alone reads
// stays on that runtime's Config.
type Params struct {
	// M is the connected-neighbour target maintenance refills toward
	// (paper default 5).
	M int
	// BufferSegments is the buffer size B (paper: 600).
	BufferSegments int
	// Replicas is k (backup copies per segment) and PrefetchLimit l (max
	// on-demand retrievals per node per period). A lookup none of the k
	// owners can serve falls back to a direct ask at the source, the path
	// of last resort every deployment has: without it a segment whose
	// owners all churned away is lost however healthy routing is.
	Replicas      int
	PrefetchLimit int
	// PushHops is how many mesh hops the fresh-segment push phase eagerly
	// forwards each newly generated segment before pull scheduling takes
	// over (engine profiles only; 0 disables the phase). Hop 1 is the
	// source spraying its connected neighbours; hop h+1 is every hop-h
	// receiver forwarding onward. Each pusher spends at most one period's
	// outbound (its O) on pushing, charged against the same ledger as its
	// gossip serving.
	PushHops int
	// QueueFactor bounds the supplier-side carry queue: requests beyond a
	// supplier's per-period backlog horizon are carried to the next
	// period, at most QueueFactor·O of them (earliest deadlines kept,
	// later ones evicted). 0 disables queueing and restores
	// drop-and-retry.
	QueueFactor int
	// Maintenance is the neighbour-maintenance tuning (low-supply
	// threshold, replacement cooldown, distress cap).
	Maintenance MaintenanceTuning
	// SourceDegreeTarget is the connected-neighbour count maintenance
	// holds the source at. The source's outbound (100 segments/s against
	// a 10 segments/s stream) is wasted behind an M-sized neighbour set:
	// every fresh segment's dissemination starts from those
	// first-generation holders, and under churn the epidemic needs the
	// wider birth fan-out to reach the whole mesh before the playback
	// deadline.
	SourceDegreeTarget int
	// RarityNoise perturbs rarity rankings per (node, segment) by up to
	// ±RarityNoise, standing in for the measurement heterogeneity of a
	// real deployment (see scheduler.Input.RarityNoise).
	RarityNoise float64
	// THop is the expected one-hop latency used by the α initialiser
	// (paper: ≈50 ms measured from its traces).
	THop sim.Time
}

// Defaults is the single source of the protocol's paper-calibrated
// constants: the shared Params plus the numbers only one runtime carries
// as a field. core.DefaultConfig and livenet.DefaultConfig both derive
// from it, so the simulator and the live runtime cannot drift apart.
type Defaults struct {
	Params
	// H is the overheard-list capacity (paper default 20).
	H int
	// Rate is the playback rate p in segments per scheduling period,
	// OutboundPerPeriod the mean peer outbound O and SourceOutbound the
	// source's uplink (paper §5.2: 10, 15 and 100). The simulator reads
	// them from its Stream and Bandwidth, the livenet as plain fields.
	Rate              int
	OutboundPerPeriod int
	SourceOutbound    int
}

// Default returns the protocol defaults. Stream and bandwidth numbers are
// read from their substrate packages rather than restated.
func Default() Defaults {
	bw := bandwidth.DefaultProfile()
	return Defaults{
		Params: Params{
			M:              5,
			BufferSegments: 600,
			Replicas:       4,
			PrefetchLimit:  5,
			PushHops:       2,
			QueueFactor:    2,
			Maintenance: MaintenanceTuning{
				LowSupplyThreshold:      1,
				ReplaceCooldownRounds:   8,
				MaxDistressReplacements: 3,
			},
			SourceDegreeTarget: 20,
			RarityNoise:        0.3,
			THop:               50 * sim.Millisecond,
		},
		H:                 20,
		Rate:              segment.DefaultStream().Rate,
		OutboundPerPeriod: bw.MeanOut,
		SourceOutbound:    bw.SourceOut,
	}
}

// Validate reports the first parameter a runtime cannot run on; core.Config
// and livenet.Config call it from their own Validate.
func (p Params) Validate() error {
	switch {
	case p.M <= 0:
		return fmt.Errorf("non-positive M %d", p.M)
	case p.BufferSegments <= 0:
		return fmt.Errorf("non-positive buffer size %d", p.BufferSegments)
	case p.Replicas <= 0 || p.PrefetchLimit <= 0:
		return fmt.Errorf("replicas %d and prefetch limit %d must be positive", p.Replicas, p.PrefetchLimit)
	case p.PushHops < 0:
		return fmt.Errorf("negative push hops %d", p.PushHops)
	case p.QueueFactor < 0:
		return fmt.Errorf("negative queue factor %d", p.QueueFactor)
	case p.Maintenance.MaxDistressReplacements < 0:
		return fmt.Errorf("negative distress replacement cap %d", p.Maintenance.MaxDistressReplacements)
	case p.SourceDegreeTarget <= 0:
		return fmt.Errorf("non-positive source degree target %d", p.SourceDegreeTarget)
	case p.THop <= 0:
		return fmt.Errorf("non-positive t_hop %v", p.THop)
	}
	return nil
}

// DegreeTarget is the connected-neighbour count maintenance refills a
// node toward: M for ordinary peers, SourceDegreeTarget for the source.
func (p Params) DegreeTarget(isSource bool) int {
	if isSource {
		return p.SourceDegreeTarget
	}
	return p.M
}
