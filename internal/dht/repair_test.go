package dht

import (
	"testing"

	"continustreaming/internal/sim"
)

// TestRepairRestoresLookupSuccess is the repair counterpart to
// TestRouteSkipsDeadPeers: kill a third of the members without telling
// anyone, measure query success, run one repair sweep, and require
// success to recover to near-perfect.
func TestRepairRestoresLookupSuccess(t *testing.T) {
	s := NewSpace(256)
	net := buildNetwork(t, s, 64, 17)
	rng := sim.DeriveRNG(17, 3)
	ids := append([]ID(nil), net.IDs()...)
	for i, id := range ids {
		if i%3 == 0 && net.Size() > 2 {
			net.Leave(id)
		}
	}
	success := func() float64 {
		const queries = 500
		succ := 0
		for q := 0; q < queries; q++ {
			from := net.IDs()[rng.Intn(net.Size())]
			if res := net.RouteTo(from, ID(rng.Intn(s.N())), nil); res.Success {
				succ++
			}
		}
		return float64(succ) / queries
	}
	before := success()
	stats := net.RepairAll(sim.DeriveRNG(17, 9))
	if stats.Refilled == 0 {
		t.Fatal("repair sweep refilled nothing after a third of the network died")
	}
	after := success()
	if after < 0.95 {
		t.Fatalf("lookup success after repair = %.3f, want >= 0.95 (before repair: %.3f)", after, before)
	}
	if after < before {
		t.Fatalf("repair made routing worse: %.3f -> %.3f", before, after)
	}
}

// TestRepairTableEvictsDeadAndRefills checks the per-table sweep directly:
// dead entries leave, vacant levels with populated arcs fill, and a second
// sweep on a stable membership is a no-op except for opportunistic
// renewals of already-filled levels.
func TestRepairTableEvictsDeadAndRefills(t *testing.T) {
	s := NewSpace(128)
	net := buildNetwork(t, s, 32, 5)
	self := net.IDs()[0]
	tbl := net.Table(self)
	// Kill every current peer of the table.
	for _, p := range tbl.Peers() {
		net.Leave(p)
	}
	if tbl.Filled() == 0 {
		t.Skip("table empty after kills; nothing to verify")
	}
	stats := net.RepairTable(tbl, sim.DeriveRNG(5, 2))
	if stats.Evicted == 0 {
		t.Fatal("no dead peers evicted")
	}
	for _, p := range tbl.Peers() {
		if !net.Alive(p) {
			t.Fatalf("repair left dead peer %d in the table", p)
		}
	}
	if net.Stale(tbl) != 0 {
		t.Fatalf("table still stale after repair: %d levels", net.Stale(tbl))
	}
}

// TestStaleCountsDeadAndRefillableLevels pins the pre-check the repair
// phase uses to skip clean tables.
func TestStaleCountsDeadAndRefillableLevels(t *testing.T) {
	s := NewSpace(64)
	net := buildNetwork(t, s, 16, 11)
	self := net.IDs()[0]
	tbl := net.Table(self)
	if got := net.Stale(tbl); got != 0 {
		// buildNetwork's second pass converges every table; levels may
		// still be legitimately vacant when their arcs are empty.
		t.Fatalf("converged table reports %d stale levels", got)
	}
	peers := tbl.Peers()
	if len(peers) == 0 {
		t.Skip("no peers to kill")
	}
	net.Leave(peers[0])
	if got := net.Stale(tbl); got < 1 {
		t.Fatalf("dead peer not counted stale (got %d)", got)
	}
}
