package core

import (
	"continustreaming/internal/metrics"
	"continustreaming/internal/sim"
)

// This file exports phase-level measurement seams: the repository
// benchmark's probes (bench/probes.go) and this package's Schedule10k and
// Maintenance10k benchmarks and ceilings price the maintenance and
// scheduling cost centres individually, not just the whole-round step, so a
// regression in one phase cannot hide inside another phase's improvement.
// The seams run real phase drivers against a warmed world; they exist for
// measurement only and are not part of the simulation API.

// BenchMaintenanceRound executes one maintenance phase against the current
// world state — the same call the round pipeline makes. Repeated calls are
// meaningful benchmark iterations: maintenance is idempotent on a stable
// mesh apart from the paced replacements it decides, exactly the
// steady-state work a measurement should price.
func (w *World) BenchMaintenanceRound() { w.maintenancePhase() }

// BenchSchedulePhase executes the scheduling slice of one round — the
// window advance that opens it, buffer-map exchange, candidate enumeration,
// and Algorithm 1 request selection — and returns how many requests were
// scheduled. Before returning it unwinds the pending-request marks the
// scheduler set (an expiry at or below the current round is behaviourally
// identical to the zero "no pending request" state, so withdrawing the
// scheduled IDs' requests restores the candidate set), which makes
// repeated calls schedule identical work — the property a benchmark
// iteration needs.
//
// Use it on a world you are finished stepping. The unwind covers the next
// probe call, not the next round: every call also files its requests with
// the nodes' rate controllers (Ctrl.NoteRequested in schedulePhase), and
// those ask tallies stay, so the following real round's Tick folds them in
// as asks that were never served and the suppliers' service estimates drop
// (one probe call before two more rounds moves the Step10k world's result
// fingerprint; EXPERIMENTS.md, "Measurement harnesses (PR 18)", has the
// measurement).
func (w *World) BenchSchedulePhase(clock *sim.Clock) int {
	w.round = clock.Round()
	w.beginRound()
	var sample metrics.RoundSample
	w.exchangePhase(&sample)
	w.schedulePhase(clock)
	total := 0
	for _, id := range w.order {
		n := w.nodes[id]
		total += len(n.asks)
		for _, req := range n.asks {
			n.seg.MarkGossip(req.ID, 0, 0)
		}
	}
	return total
}
