package core

import (
	"fmt"

	"continustreaming/internal/bandwidth"
	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/prefetch"
	"continustreaming/internal/protocol"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// Node is one overlay peer: the software architecture of Figure 1 — P2P
// Overlay Manager (PeerTable), Buffer, Rate Controller, and VoD Data
// Backup — plus the simulation-side bookkeeping (pending requests, arrival
// timestamps, the supplier's carry queue) a real implementation would
// keep in its transport layer. The Data Scheduler holds no per-node
// state, so the world keeps the one policy its profile selects. Every
// per-node fact lives here once: the neighbour set and DHT levels in
// Table, everything keyed by segment in seg, the supplier-side round
// state in carry and pushSpent.
type Node struct {
	// ID is the node's overlay identifier and its DHT ring position.
	ID overlay.NodeID
	// Gen is the assignment generation of this ring ID (0 = first use).
	// It salts the ID-keyed random streams so a recycled slot never
	// replays its dead predecessor's randomness.
	Gen uint64
	// IsSource marks the single media source.
	IsSource bool
	// Rates is the node's access capacity.
	Rates bandwidth.Rates
	// Ping is the node's trace ping time; pairwise latency derives from
	// ping differences (§5.2).
	Ping sim.Time
	// Table is the Peer Table (connected neighbours + DHT peers +
	// overheard nodes).
	Table *overlay.PeerTable
	// Buf is the sliding segment buffer.
	Buf *buffer.Buffer
	// Ctrl estimates per-neighbour receiving rates.
	Ctrl *bandwidth.Controller
	// Alpha adapts the urgent ratio; nil for profiles without pre-fetch
	// (and for the source).
	Alpha *prefetch.Alpha
	// Backup is the node's VoD Data Backup store.
	Backup *dht.Store
	// RNG is the node's private randomness stream.
	RNG *sim.RNG

	// Started reports whether playback has begun (§5.2: the system ramps
	// up as nodes buffer enough to start; new joiners follow their
	// neighbours' current position).
	Started bool
	// StartedRound records when playback began, for diagnostics.
	StartedRound int
	// JoinedRound records when the node entered the overlay (-1 for the
	// initial population, which is warm by construction). Nodes within
	// Config.WarmupRounds of joining are excluded from the warm
	// continuity metric.
	JoinedRound int

	// seg tracks the per-segment transient state (pending requests,
	// in-flight pre-fetches, pre-fetch tags, arrival timestamps) in dense
	// window-aligned arrays instead of maps: every live entry's ID sits
	// inside the buffer window, so a circular array indexed by id mod
	// slots holds them without hashing or per-entry allocation.
	seg segTrack

	// carry is the supplier-side carry queue: the requests this node
	// could not serve inside its backlog horizon and keeps, in deadline
	// order, for the next round (protocol.PlanServe bounds and revalidates
	// it). It is the one piece of serve state that crosses rounds; it
	// dies with the node, so a joiner recycling the ring slot starts
	// empty. Only the serve shard that owns the node (or sequential phase
	// code) touches it, and that shard lists the node in its arena's
	// carriers while the queue is non-empty.
	carry []protocol.Request
	// pushSpent counts the eager-push transmissions this node made this
	// round; serving subtracts it from the backlog horizon and queues
	// grants behind it on the wire. Same ownership rule as carry.
	pushSpent int

	// overdue / repeated accumulate this round's α feedback.
	overdue  int
	repeated int
	// pushReceived counts segments that arrived on this node's inbound
	// link via the eager push phase this round; the pull scheduler's
	// budget shrinks by it, so push and pull share the inbound rate the
	// same way pre-fetch and pull share it on the outbound side.
	pushReceived int
	// lastReplace is the most recent round in which this node swapped a
	// low-supply neighbour, enforcing the replacement cooldown.
	lastReplace int
	// missedLastRound records whether the previous round's playback was
	// discontinuous; only struggling nodes rewire low-supply neighbours.
	missedLastRound bool
	// missStreak counts consecutive discontinuous rounds; two or more is
	// playback distress, which unlocks multi-replacement in maintenance.
	missStreak int
}

// pendingExpiryRounds is how many rounds a request stays pending before the
// node gives up and becomes willing to re-request the segment.
const pendingExpiryRounds = 2

// segTrack holds a node's per-segment transient state in dense circular
// arrays. Every live entry's ID lies inside the node's buffer window
// [lo, lo+B): requests and pre-fetches target in-window segments, and
// arrival times only matter while the segment is buffered. The arrays
// hold exactly B slots — id maps to loSlot plus its offset from lo,
// wrapping once — so the mapping is collision-free across any window of
// in-window IDs without rounding B up to a power of two (that rounding
// was ~40% of every node's footprint, the dominant live-heap term at
// 100k nodes). Entries for IDs that fell below lo are wiped as the
// window slides past them, so a slot holds at most one live entry and
// needs no tag or hash.
//
// Expiry is checked lazily at read time (expiry > round), which makes an
// expired entry indistinguishable from an absent one — the same contract
// the old map sweep enforced eagerly each round.
type segTrack struct {
	lo     segment.ID // slots for ids < lo are clear; never decreases, >= 0
	loSlot int        // index of lo's slot: int(lo) % slots
	slots  int        // exactly the buffer size

	arrived          []sim.Time // first arrival time; -1 = unrecorded
	gossipExpiry     []int32    // retry round bound; 0 = no pending request
	gossipExpectedAt []sim.Time // expected arrival; valid while gossipExpiry set
	prefetchExpiry   []int32    // 0 = no pending pre-fetch
	// tagged has one bit per slot: set when a pre-fetch was issued for the
	// segment, so a gossip copy of it can be recognised as "repeated
	// data" (§4.3 Case 2) — the pre-fetch was unnecessary and α should
	// shrink. Unlike prefetchExpiry it survives the segment's arrival and
	// is cleared when the repeat decision is made.
	tagged []uint64
}

// openSegTrack returns a clear tracker whose window opens at lo (>= 0),
// on recycled's arrays when it has any — a departed node's, handed back
// by World.leave — and on fresh ones otherwise. gossipExpectedAt is left
// as found: it is read only under a set gossipExpiry, which rewrites it.
func openSegTrack(slots int, lo segment.ID, recycled segTrack) segTrack {
	t := recycled
	if t.arrived == nil {
		t = segTrack{
			slots:            slots,
			arrived:          make([]sim.Time, slots),
			gossipExpiry:     make([]int32, slots),
			gossipExpectedAt: make([]sim.Time, slots),
			prefetchExpiry:   make([]int32, slots),
			tagged:           make([]uint64, (slots+63)/64),
		}
	} else {
		clear(t.gossipExpiry)
		clear(t.prefetchExpiry)
		clear(t.tagged)
	}
	for i := range t.arrived {
		t.arrived[i] = -1
	}
	t.lo, t.loSlot = lo, int(lo)%slots
	return t
}

// slot maps id to its array index; ok is false outside the tracked range.
func (t *segTrack) slot(id segment.ID) (int, bool) {
	off := int(id - t.lo)
	if off < 0 || off >= t.slots {
		return 0, false
	}
	s := t.loSlot + off
	if s >= t.slots {
		s -= t.slots
	}
	return s, true
}

// mustSlot is slot for writers, whose IDs are in-window by construction.
func (t *segTrack) mustSlot(id segment.ID) int {
	s, ok := t.slot(id)
	if !ok {
		panic(fmt.Sprintf("core: segment %d outside tracked window [%d,%d)", id, t.lo, t.lo+segment.ID(t.slots)))
	}
	return s
}

// advanceTo slides the tracked window, wiping state for every ID the
// window passed. Cost is O(min(shift, slots)). The first advance from a
// negative or zero position establishes lo >= 0; later calls only grow
// it, so loSlot stays a plain non-negative remainder.
func (t *segTrack) advanceTo(lo segment.ID) {
	if lo <= t.lo {
		return
	}
	k := int(lo - t.lo)
	if k > t.slots {
		k = t.slots
	}
	s := t.loSlot
	for i := 0; i < k; i++ {
		t.arrived[s] = -1
		t.gossipExpiry[s] = 0
		t.prefetchExpiry[s] = 0
		t.tagged[s>>6] &^= 1 << (uint(s) & 63)
		if s++; s == t.slots {
			s = 0
		}
	}
	t.lo = lo
	t.loSlot = int(lo) % t.slots
}

// Fresh reports whether the node should consider fetching id: absent from
// the buffer and not pending on either path.
func (n *Node) Fresh(id segment.ID, round int) bool {
	if n.Buf.Has(id) {
		return false
	}
	s, ok := n.seg.slot(id)
	if !ok {
		return true
	}
	return int(n.seg.gossipExpiry[s]) <= round && int(n.seg.prefetchExpiry[s]) <= round
}

// markGossipPending records a scheduled request with its expected arrival.
func (n *Node) markGossipPending(id segment.ID, round int, expectedAt sim.Time) {
	s := n.seg.mustSlot(id)
	n.seg.gossipExpiry[s] = int32(round + pendingExpiryRounds)
	n.seg.gossipExpectedAt[s] = expectedAt
}

// predictExcluded reports whether the Urgent Line should skip id: a
// pre-fetch is already in flight, or a gossip request exists whose
// expected arrival is still in the future AND beats the segment's
// deadline. A scheduled transfer that will land too late — or whose
// expected arrival has already passed without the segment showing up
// (dropped at an overloaded supplier) — is NOT excluded: those are
// precisely the segments "likely to be missed by the data scheduling
// algorithm".
func (n *Node) predictExcluded(id segment.ID, round int, now, deadline sim.Time) bool {
	s, ok := n.seg.slot(id)
	if !ok {
		return false
	}
	if int(n.seg.prefetchExpiry[s]) > round {
		return true
	}
	if int(n.seg.gossipExpiry[s]) <= round {
		return false
	}
	at := n.seg.gossipExpectedAt[s]
	return at >= now && at <= deadline
}

// markPrefetchPending records an in-flight pre-fetch and tags the segment.
func (n *Node) markPrefetchPending(id segment.ID, round int) {
	s := n.seg.mustSlot(id)
	n.seg.prefetchExpiry[s] = int32(round + pendingExpiryRounds)
	n.seg.tagged[s>>6] |= 1 << (uint(s) & 63)
}

// prefetchTagged reports whether a pre-fetch was issued for id and the
// repeat decision is still open.
func (n *Node) prefetchTagged(id segment.ID) bool {
	s, ok := n.seg.slot(id)
	return ok && n.seg.tagged[s>>6]&(1<<(uint(s)&63)) != 0
}

// clearPrefetchTag closes id's repeat decision.
func (n *Node) clearPrefetchTag(id segment.ID) {
	if s, ok := n.seg.slot(id); ok {
		n.seg.tagged[s>>6] &^= 1 << (uint(s) & 63)
	}
}

// receive ingests a delivered segment at time at. It returns true when the
// segment was newly stored (false for duplicates or out-of-window
// arrivals). The caller handles accounting.
func (n *Node) receive(id segment.ID, at sim.Time) bool {
	if s, ok := n.seg.slot(id); ok {
		n.seg.gossipExpiry[s] = 0
		n.seg.prefetchExpiry[s] = 0
	}
	if !n.Buf.Insert(id) {
		return false
	}
	n.noteArrived(id, at)
	return true
}

// noteArrived records id's first arrival time (later arrivals keep the
// original timestamp).
func (n *Node) noteArrived(id segment.ID, at sim.Time) {
	s := n.seg.mustSlot(id)
	if n.seg.arrived[s] < 0 {
		n.seg.arrived[s] = at
	}
}

// pruneBelow drops all per-segment state older than floor.
func (n *Node) pruneBelow(floor segment.ID) {
	n.seg.advanceTo(floor)
	n.Backup.PruneBelow(floor)
}

// arrivedInTime reports whether id is buffered and arrived at or before
// deadline.
func (n *Node) arrivedInTime(id segment.ID, deadline sim.Time) bool {
	if !n.Buf.Has(id) {
		return false
	}
	s, ok := n.seg.slot(id)
	if !ok {
		return true
	}
	at := n.seg.arrived[s]
	// Segments with no recorded arrival were present before tracking
	// (source-generated); treat as in time.
	return at < 0 || at <= deadline
}

// believedSuccessor returns the node's view of its clockwise successor —
// the n1 bounding its backup arc (§4.3). Without any DHT peer the node
// cannot delimit an arc and backs up nothing.
func (n *Node) believedSuccessor() (dht.ID, bool) {
	return n.Table.DHT().Successor()
}

// maybeBackup stores id in the VoD backup when the hash rule makes this
// node responsible for it.
func (n *Node) maybeBackup(space dht.Space, id segment.ID, replicas int) {
	succ, ok := n.believedSuccessor()
	if !ok {
		return
	}
	if dht.Responsible(space, dht.ID(n.ID), succ, id, replicas) {
		n.Backup.Put(id)
	}
}
