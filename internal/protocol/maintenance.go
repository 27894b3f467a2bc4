package protocol

import (
	"cmp"
	"slices"

	"continustreaming/internal/overlay"
	"continustreaming/internal/sim"
)

// GossipPicks draws one node's membership-gossip payload for the round:
// for every alive neighbour, up to two picks of its other neighbours (the
// SCAMP-style membership gossip CoolStreaming builds on, riding inside
// the existing buffer-map exchange). Each pick draws from rng exactly
// once, so the draw sequence is a function of the node's own stream alone
// — never of worker interleaving or transport timing — and a pick that
// lands on the hearing neighbour itself or on a dead node is simply
// skipped, exactly the redundancy a real gossip payload pays.
func GossipPicks(rng *sim.RNG, neighbours []overlay.NodeID, alive func(overlay.NodeID) bool, emit func(to, about overlay.NodeID)) {
	for _, nb := range neighbours {
		if !alive(nb) {
			continue
		}
		for c := 0; c < 2 && len(neighbours) > 1; c++ {
			cand := neighbours[rng.Intn(len(neighbours))]
			if cand == nb || !alive(cand) {
				continue
			}
			emit(nb, cand)
		}
	}
}

// RewireIntent is one node's desired mesh changes for the round, computed
// from a local view and applied by the runtime afterwards. Candidates are
// in preference order; the apply step must revalidate every entry against
// the live edge set, because earlier intents (or remote connects) may
// have changed it.
type RewireIntent struct {
	Node overlay.NodeID
	// Drop lists low-supply victims, worst first. Each is swapped out
	// only if a fresh adoption candidate remains.
	Drop []overlay.NodeID
	// Adopt lists replacement/refill candidates, best first.
	Adopt []overlay.NodeID
}

// NeighborSupply is one connected neighbour as the low-supply judgement
// sees it: the long-run delivery-rate estimate and whether the estimator
// has observed it long enough to judge at all.
type NeighborSupply struct {
	ID overlay.NodeID
	// Known reports whether the rate controller has an estimate; only
	// observed neighbours are judged.
	Known bool
	// Supply is the long-run receiving-rate estimate in segments/s — the
	// paper's "supplied little data" signal.
	Supply float64
}

// CandidateSource is one ranked pool of adoption candidates: IDs with the
// latency the ranking sorts by.
type CandidateSource struct {
	ID      overlay.NodeID
	Latency sim.Time
}

// ViewProvider supplies the pool-shaped inputs of one node's rewire
// decision on demand. It replaces the per-node closures the view used to
// carry: a runtime implements it once with a reusable (typically
// per-shard) value, and PlanRewire consults it only past the
// at-target-degree fast path — the common node at target degree with no
// playback distress assembles nothing at all.
//
// The Append methods append to dst and return the extended slice, so a
// caller-owned scratch buffer absorbs every pool materialisation.
// PlanRewire consumes each returned slice before the next Append call;
// providers may therefore share one internal buffer across methods but
// must not retain dst.
type ViewProvider interface {
	// AppendNeighbors appends the connected neighbours with their supply
	// estimates, in the node's table order.
	AppendNeighbors(dst []NeighborSupply) []NeighborSupply
	// AppendOverheard appends the overheard-node pool (the paper's
	// replacement source) with learned latencies. Order is irrelevant:
	// candidates are deduplicated by ID and ranked by (latency, ID).
	AppendOverheard(dst []CandidateSource) []CandidateSource
	// AppendDHTPeers appends the node's structured-overlay peer levels
	// (the membership view churn cannot empty) with measured latencies.
	AppendDHTPeers(dst []CandidateSource) []CandidateSource
	// AppendRPCandidates appends up to max rendezvous-point membership
	// candidates — the source's degree-protection refill of last resort.
	// Only consulted for the source; other nodes may return dst
	// unchanged.
	AppendRPCandidates(dst []overlay.NodeID, max int) []overlay.NodeID
	// Alive reports whether a candidate is currently a live overlay
	// member; Connected whether it is already a neighbour.
	Alive(id overlay.NodeID) bool
	Connected(id overlay.NodeID) bool
}

// MaintenanceView is everything one node's rewire decision depends on,
// assembled by the runtime from its own state: the simulator from
// shard-owned node state, livenet from what a peer learned over its
// channels. The scalar fields decide the fast path; Provider supplies
// the pools only when a decision actually needs them.
type MaintenanceView struct {
	// Node is the deciding node; Source the stream source's ID (never a
	// low-supply victim — it is the root of all data).
	Node   overlay.NodeID
	Source overlay.NodeID
	// IsSource marks the source itself (it never sheds neighbours, and
	// it alone may refill from the RP membership list).
	IsSource bool
	// Warm reports whether playback has begun overlay-wide; before that
	// there is no supply signal worth acting on.
	Warm bool
	// Round is the current scheduling period and LastReplace the most
	// recent period in which this node swapped a low-supply neighbour
	// (cooldown enforcement).
	Round       int
	LastReplace int
	// Degree is the node's current connected-neighbour count and
	// DegreeTarget what maintenance refills it toward.
	Degree       int
	DegreeTarget int
	// MissedLastRound and MissStreak are the playback-distress signals:
	// only struggling nodes shed neighbours, and a streak of two or more
	// unlocks multi-replacement.
	MissedLastRound bool
	MissStreak      int
	// Provider supplies the neighbour-supply list and the candidate
	// pools. It is consulted only past the fast path — most nodes are at
	// target degree with nothing to drop, and the decision returns
	// before ever materialising a pool.
	Provider ViewProvider
}

// MaintenanceTuning is the paper-calibrated maintenance knobs, shared by
// both runtimes as Params.Maintenance.
type MaintenanceTuning struct {
	// LowSupplyThreshold is the segments/s below which a neighbour
	// counts as "supplied little data" and becomes replaceable (§4.1).
	LowSupplyThreshold float64
	// ReplaceCooldownRounds is the minimum spacing between two
	// low-supply replacements by the same node. Without it a node
	// re-judges its neighbours every period and keeps rewiring: each swap
	// discards the rate estimates both sides learned, which measurably
	// destabilises the mesh (scheduling quality drops and supplier drops
	// double). A real deployment pays connection setup costs that impose
	// the same pacing.
	ReplaceCooldownRounds int
	// MaxDistressReplacements caps how many starved links a node in
	// sustained playback distress (MissStreak >= 2) may shed at once;
	// outside distress the cap is 1, the paper's one-replacement-per-period
	// rule, and 0 keeps it at 1 even under distress.
	MaxDistressReplacements int
}

// RewireScratch is reusable per-caller state for PlanRewire: the pool
// buffers and the grow-only arena that backs every returned intent's
// Drop/Adopt slices. Zero value is ready to use. The reuse contract:
// intents planned through one scratch stay valid until its next Reset —
// a runtime plans a batch, applies it, then Resets before the next
// batch. The pool buffers are recycled every call, which is safe because
// PlanRewire fully consumes them before returning.
type RewireScratch struct {
	neighbours []NeighborSupply
	victims    []NeighborSupply
	cands      []CandidateSource
	rp         []overlay.NodeID
	seen       []overlay.NodeID
	// ids is the intent arena; Drop/Adopt are full-capacity subslices of
	// it, so later plans can never append into an earlier intent.
	ids []overlay.NodeID
}

// Reset reclaims the intent arena, invalidating every intent planned
// through this scratch since the previous Reset.
func (sc *RewireScratch) Reset() { sc.ids = sc.ids[:0] }

// carve returns ids[start:] as a full-capacity subslice: callers keep a
// stable window into the arena that later appends can never write into.
func (sc *RewireScratch) carve(start int) []overlay.NodeID {
	return sc.ids[start:len(sc.ids):len(sc.ids)]
}

// PlanRewire computes one node's desired mesh changes from its local
// view: low-supply victims (multi-replacement under playback distress)
// and refill/replacement candidates in preference order — overheard nodes
// by latency (the paper's replacement rule), then the node's own DHT peer
// levels when the overheard list runs dry, then, for the source only, the
// RP's membership list (degree protection: the stream's root must never
// sit under-degreed, since its edges are where fresh segments enter the
// mesh).
//
// The at-target-degree fast path decides the common case — no deficit,
// no shedding possible — from the view's scalar fields alone, before
// touching the provider or the scratch; see the RewireScratch reuse
// contract for how long the returned intent stays valid.
func PlanRewire(v MaintenanceView, t MaintenanceTuning, sc *RewireScratch) (RewireIntent, bool) {
	deficit := v.DegreeTarget - v.Degree
	// Shedding requires warmth (a supply signal worth acting on),
	// playback distress, and an expired cooldown. The cooldown holds
	// even under distress: every swap discards the rate estimates both
	// sides learned, and a node that rewires every round never learns
	// who its good suppliers are — that feedback loop, not degree loss,
	// is what used to collapse churned meshes.
	mayShed := v.Warm && !v.IsSource && v.MissedLastRound &&
		v.Round-v.LastReplace >= t.ReplaceCooldownRounds
	if deficit <= 0 && !mayShed {
		return RewireIntent{}, false
	}
	intent := RewireIntent{Node: v.Node}
	if mayShed {
		intent.Drop = lowSupplyVictims(&v, t, sc)
	}
	if deficit <= 0 && len(intent.Drop) == 0 {
		return RewireIntent{}, false
	}
	// Replacement is one-out-one-in and does not raise degree, so an
	// over-degreed node (bidirectional adoptions routinely push past the
	// target) must not let its negative deficit cancel the replacement
	// budget. A little slack beyond the strict need absorbs candidates
	// that the apply pass invalidates (adopted from the other side,
	// died, already connected).
	want := len(intent.Drop) + 2
	if deficit > 0 {
		want += deficit
	}
	intent.Adopt = adoptionCandidates(&v, want, sc)
	if len(intent.Adopt) == 0 && deficit <= 0 {
		return RewireIntent{}, false
	}
	return intent, len(intent.Adopt) > 0
}

// lowSupplyVictims returns the node's under-delivering neighbours, worst
// first, up to the distress-scaled replacement cap. Outside distress the
// paper's one-replacement-per-cooldown rule holds; a node that has missed
// two or more consecutive rounds is bleeding playback and may shed up to
// MaxDistressReplacements starved links at once — waiting one cooldown
// window per link is exactly how churned meshes died before this rule.
// The caller has already established distress and cooldown expiry.
func lowSupplyVictims(v *MaintenanceView, t MaintenanceTuning, sc *RewireScratch) []overlay.NodeID {
	limit := 1
	if v.MissStreak >= 2 && t.MaxDistressReplacements > limit {
		limit = t.MaxDistressReplacements
	}
	sc.neighbours = v.Provider.AppendNeighbors(sc.neighbours[:0])
	victims := sc.victims[:0]
	for _, nb := range sc.neighbours {
		if nb.ID == v.Source {
			continue // the source is the root of all data, never dropped
		}
		// Only judge neighbours we have had time to observe; the long-run
		// supply estimate is the "supplied little data" signal.
		if !nb.Known {
			continue
		}
		if nb.Supply < t.LowSupplyThreshold {
			victims = append(victims, nb)
		}
	}
	sc.victims = victims
	slices.SortFunc(victims, func(a, b NeighborSupply) int {
		if a.Supply != b.Supply {
			return cmp.Compare(a.Supply, b.Supply)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if len(victims) > limit {
		victims = victims[:limit]
	}
	start := len(sc.ids)
	for _, vi := range victims {
		sc.ids = append(sc.ids, vi.ID)
	}
	return sc.carve(start)
}

// usableCand is the cross-pool candidate filter: not self, not already
// considered, alive, not connected. Accepted candidates are recorded in
// the seen set so later pools cannot re-offer them.
func usableCand(v *MaintenanceView, sc *RewireScratch, c overlay.NodeID) bool {
	if c < 0 || c == v.Node || slices.Contains(sc.seen, c) || !v.Provider.Alive(c) || v.Provider.Connected(c) {
		return false
	}
	sc.seen = append(sc.seen, c)
	return true
}

// adoptionCandidates assembles up to want connection candidates in
// preference order from the provider's pools. Pools are filtered in
// priority order and deduplicated across pools: an overheard candidate
// beyond the want cut still shadows its DHT-pool duplicate, exactly as a
// node consulting its own tables would skip an entry it already
// considered.
func adoptionCandidates(v *MaintenanceView, want int, sc *RewireScratch) []overlay.NodeID {
	if want <= 0 {
		return nil
	}
	sc.seen = sc.seen[:0]
	start := len(sc.ids)
	sc.cands = v.Provider.AppendOverheard(sc.cands[:0])
	if appendRanked(v, sc, start, want) {
		return sc.carve(start)
	}
	// Eager refill: the structured overlay's peer levels survive churn
	// (the repair cadence keeps them alive), so they are the membership
	// view of last resort when gossip has not overheard enough fresh
	// nodes.
	sc.cands = v.Provider.AppendDHTPeers(sc.cands[:0])
	if appendRanked(v, sc, start, want) {
		return sc.carve(start)
	}
	if v.IsSource {
		sc.rp = v.Provider.AppendRPCandidates(sc.rp[:0], 2*want)
		for _, c := range sc.rp {
			if len(sc.ids)-start >= want {
				break
			}
			if usableCand(v, sc, c) {
				sc.ids = append(sc.ids, c)
			}
		}
	}
	return sc.carve(start)
}

// appendRanked filters the pool in sc.cands through usableCand, ranks it
// by (latency, ID) — the paper's lowest-latency replacement rule with a
// deterministic tie-break — and lists it after start until want are
// listed. It reports whether a usable candidate was left over at the cut,
// the one case that ends the search before the next pool.
func appendRanked(v *MaintenanceView, sc *RewireScratch, start, want int) bool {
	n := 0
	for _, c := range sc.cands {
		if usableCand(v, sc, c.ID) {
			sc.cands[n] = c
			n++
		}
	}
	cands := sc.cands[:n]
	slices.SortFunc(cands, func(a, b CandidateSource) int {
		return cmp.Or(cmp.Compare(a.Latency, b.Latency), cmp.Compare(a.ID, b.ID))
	})
	for _, c := range cands {
		if len(sc.ids)-start >= want {
			return true
		}
		sc.ids = append(sc.ids, c.ID)
	}
	return false
}

// ApplyRewire executes one intent, revalidating every entry through view
// (earlier intents or remote connects may have moved the edge set): each
// victim still Connected is swapped for the next candidate that is Alive,
// not Connected and not the node, then candidates are adopted until
// degree() — read once, after the swaps — reaches target. A simulator swap
// keeps the degree; a livenet one lowers it until ConnectOK, so there each
// swap brings one extra refill adoption.
func ApplyRewire(intent RewireIntent, view ViewProvider, degree func() int, target int,
	swap func(victim, cand overlay.NodeID), adopt func(cand overlay.NodeID)) {
	next := 0
	take := func() (overlay.NodeID, bool) {
		for ; next < len(intent.Adopt); next++ {
			if c := intent.Adopt[next]; c != intent.Node && view.Alive(c) && !view.Connected(c) {
				next++
				return c, true
			}
		}
		return -1, false
	}
	for _, victim := range intent.Drop {
		if !view.Connected(victim) {
			continue // already gone (dead, or dropped from the other side)
		}
		cand, ok := take()
		if !ok {
			return
		}
		swap(victim, cand)
	}
	for want := target - degree(); want > 0; want-- {
		cand, ok := take()
		if !ok {
			return
		}
		adopt(cand)
	}
}
