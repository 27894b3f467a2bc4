package core

import (
	"continustreaming/internal/bandwidth"
	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/prefetch"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// Node is one overlay peer: the software architecture of Figure 1 — P2P
// Overlay Manager (PeerTable), Buffer, Rate Controller, and VoD Data
// Backup (a plane of seg) — plus the bookkeeping a real implementation
// keeps beside them (the livenet peer does): the in-flight and arrival
// record of the window's segments and the supplier's carry queue. The Data
// Scheduler holds no per-node state, so the world keeps the one policy its
// profile selects. Every per-node fact lives here once: the neighbour set
// and DHT levels in Table, everything keyed by segment in seg — the
// buffer.Track the livenet peer keeps too — and the supplier-side round
// state in carry and up. Other nodes' schedule and serve shards read Buf
// in place (see exchangePhase); nothing copies it.
//
// Each component the round touches — Table, Buf, Ctrl, RNG, seg, up — is
// a value field, so it sits in the Node itself: a phase that has loaded
// the node reads it without a further pointer hop (the components' own
// slices, the buffer's words, the tracker's slots, the neighbour list and
// the controller rows, are still one hop away). Nodes are laid out in the
// order the round walks them: each lives in a slot of its ownership
// shard's slab (see slab), and NewWorld builds the initial population
// shard by shard in work-list order, allocating those slices in the same
// order, so an owner walk reads memory front to back. Table's DHT section
// stays the dht.Table the network routes through, an object of its own:
// routing walks touch only tables, and run faster over small ones than
// through whole nodes. A node is always handled as a *Node, never copied,
// and the pointer is good only while the node is alive: leave zeroes the
// slot and a later joiner reuses it.
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
	// Table is the Peer Table (connected neighbours + DHT peers +
	// overheard nodes).
	Table overlay.PeerTable
	// Buf is the sliding segment buffer.
	Buf buffer.Buffer
	// Ctrl estimates per-neighbour receiving rates.
	Ctrl bandwidth.Controller
	// Alpha adapts the urgent ratio; nil for profiles without pre-fetch
	// (and for the source).
	Alpha *prefetch.Alpha
	// RNG is the node's private randomness stream.
	RNG sim.RNG

	// Started reports whether playback has begun (§5.2: the system ramps
	// up as nodes buffer enough to start; new joiners follow their
	// neighbours' current position).
	Started bool
	// JoinedRound records when the node entered the overlay (-1 for the
	// initial population, which is warm by construction). Nodes within
	// warmupRounds of joining are excluded from the warm continuity
	// metric.
	JoinedRound int

	// seg tracks the per-segment state (pending requests, in-flight
	// pre-fetches, pre-fetch tags, arrival timestamps, the VoD backup) of
	// the fetch span at the bottom of Buf's window, the only IDs that
	// exist ahead of playback (Config.fetchSpan); beginRound slides it
	// with the buffer.
	seg buffer.Track

	// carry is the supplier-side carry queue: the requests this node
	// could not serve inside its backlog horizon and keeps, in deadline
	// order, for the next round (protocol.PlanServe bounds and revalidates
	// it). It is the one piece of serve state that crosses rounds; it
	// dies with the node, so a joiner recycling the ring slot starts
	// empty. Only the serve shard that owns the node (or sequential phase
	// code) touches it; that shard visits every node it owns, so a queue
	// needs no list of its holders.
	carry []protocol.Request
	// up is the round's outbound ledger, opened by beginRound and charged
	// by the push phase's sequential loop, the pre-fetch claim stage and the
	// serve shard that owns the node.
	up protocol.Uplink

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
	// asks is the round's scheduled requests of this node, each to a
	// connected neighbour: set by schedulePhase (nil when the node
	// scheduled nothing) and read in place by those neighbours' serve
	// shards (pullAsks). It aliases its schedule shard's request arena,
	// valid until the next round's schedule phase.
	asks []scheduler.Request
}

// pendingExpiryRounds is how many rounds a request stays pending before the
// node gives up and becomes willing to re-request the segment.
const pendingExpiryRounds = 2

// warmupRounds is how long after joining a node is excluded from the warm
// continuity metric (RoundSample.WarmNodes): a joiner needs a round or two
// of catch-up before its misses say anything about dissemination quality.
// It only affects reporting, never scheduling.
const warmupRounds = 2

// predictExcluded reports whether the Urgent Line should skip id: a
// pre-fetch is already in flight, or a gossip request exists whose
// expected arrival is still in the future AND beats the segment's
// deadline. A scheduled transfer that will land too late — or whose
// expected arrival has already passed without the segment showing up
// (dropped at an overloaded supplier) — is NOT excluded: those are
// precisely the segments "likely to be missed by the data scheduling
// algorithm".
func (n *Node) predictExcluded(id segment.ID, round int, now, deadline sim.Time) bool {
	if n.seg.PrefetchPending(id, round) {
		return true
	}
	at, ok := n.seg.GossipExpected(id, round)
	return ok && at >= now && at <= deadline
}

// receive ingests a delivered segment at time at. It returns true when the
// segment was newly stored (false for duplicates or out-of-window
// arrivals). The caller handles accounting.
func (n *Node) receive(id segment.ID, at sim.Time) bool {
	n.seg.Received(id)
	if !n.Buf.Insert(id) {
		return false
	}
	n.seg.NoteArrived(id, at)
	return true
}

// arrivedInTime reports whether id is buffered and arrived at or before
// deadline. Segments with no recorded arrival were present before tracking
// (source-generated) and count as in time.
func (n *Node) arrivedInTime(id segment.ID, deadline sim.Time) bool {
	return n.Buf.Has(id) && n.seg.Arrived(id) <= deadline
}

// believedSuccessor returns the node's view of its clockwise successor —
// the n1 bounding its backup arc (§4.3). Without any DHT peer the node
// cannot delimit an arc and backs up nothing.
func (n *Node) believedSuccessor() (dht.ID, bool) {
	return n.Table.DHT().Successor()
}

// maybeBackup backs id up when the hash rule makes this node responsible
// for it.
func (n *Node) maybeBackup(space dht.Space, id segment.ID, replicas int) {
	succ, ok := n.believedSuccessor()
	if !ok {
		return
	}
	if dht.Responsible(space, dht.ID(n.ID), succ, id, replicas) {
		n.seg.Back(id)
	}
}
