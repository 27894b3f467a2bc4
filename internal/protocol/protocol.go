// Package protocol is the transport-agnostic core of the streaming
// protocol: the per-node decision functions and state machines that both
// runtimes — the deterministic BSP simulator (internal/core) and the
// message-passing livenet runtime (internal/livenet) — drive with their
// own notion of time, membership and message passing.
//
// Everything here is pure with respect to the hosting runtime: functions
// take explicit inputs (local views, buffer-map snapshots, an RNG stream,
// clock values) and return intents (sends, grants, rewires) that the
// caller executes over whatever transport it owns. The package knows
// nothing of sim.ForShards, goroutines or channels; that is what makes the
// same code paths runnable inside a bit-deterministic sharded pipeline and
// across real message passing.
//
// The decision families:
//
//   - Membership maintenance — SCAMP-style membership gossip picks
//     (GossipPicks) and the paper's neighbour maintenance rules with
//     distress-scaled low-supply replacement (PlanRewire, ApplyRewire).
//   - Fresh-segment push — breadth-first eager forwarding plans for newly
//     generated segments (PlanPushMask), the dissemination engine's answer to
//     the pull-epidemic depth gap at 8000+ nodes.
//   - Supplier-side service — earliest-deadline-first serving with a
//     neighbourhood-rarity tie-break and bounded carry queues
//     (PlanServe), plus the published pull-only round-robin discipline the
//     CoolStreaming baseline keeps (ServeRoundRobin). The state these
//     decisions carry — a supplier's carry queue, the period's Uplink
//     that push, rescue and serve charge — belongs to the runtime's node
//     (core.Node, a livenet peer); the package holds none.
//
// Design notes for the dissemination engine (push + EDF serve + queueing)
// live with the respective functions; the three are one coordinated
// mechanism — EDF service without push seeding starves the frontier
// replication that keeps new content multiplying.
package protocol

import (
	"continustreaming/internal/overlay"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// Request is one requester→supplier ask as the supplier's service
// discipline sees it.
type Request struct {
	// Requester is the asking node.
	Requester overlay.NodeID
	// ID is the requested segment.
	ID segment.ID
	// Deadline is the latest useful arrival time of the segment at the
	// requester (the end of the scheduling period it plays in).
	Deadline sim.Time
	// Rarity is the supplier-side rarity of the segment (equation (2)
	// evaluated over the supplier's neighbour buffer maps); rarer
	// segments win deadline ties because their copies are about to
	// vanish from the neighbourhood.
	Rarity float64
	// Expected is the requester's expected completion offset, used only
	// by the baseline round-robin discipline (ServeRoundRobin).
	Expected sim.Time
	// Carried marks a request served out of the carry queue rather than
	// scheduled this round.
	Carried bool
}

// Send is one eager fresh-segment transmission.
type Send struct {
	From, To overlay.NodeID
	ID       segment.ID
}

// SupplierRarity evaluates the requesting-priority rarity term from the
// supplier's point of view: positions are the segment's FIFO
// positions-from-tail in the advertised buffers of the supplier's
// neighbours that hold it. The product below is the requester-side
// scheduler.Rarity (equation (2)) computed in place — same clamping,
// same factor order — without staging the positions through a candidate;
// a segment none of the supplier's neighbours hold is maximally rare —
// the supplier may be its sole holder in the neighbourhood, so the empty
// product is 1, not scheduler.Rarity's no-candidate 0.
func SupplierRarity(bufferSize int, positions []int) float64 {
	r := 1.0
	for _, pos := range positions {
		p := float64(pos) / float64(bufferSize)
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		r *= p
	}
	return r
}

// SupplierRarityUniform is SupplierRarity for count holders that share one
// FIFO position — the aligned-window case: when every advertised buffer
// opens at the shared playback position, a segment's position-from-tail is
// identical in each holder, so the holder set collapses to a popcount and
// the product to a repeated factor. The multiply loop below performs the
// same operation sequence as SupplierRarity over an equal-valued positions
// slice, keeping the float result bit-identical.
func SupplierRarityUniform(bufferSize, position, count int) float64 {
	p := float64(position) / float64(bufferSize)
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	r := 1.0
	for i := 0; i < count; i++ {
		r *= p
	}
	return r
}
