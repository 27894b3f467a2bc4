package dht

import "math/bits"

// Table is one node's levelled DHT peer list. Level i (1-based) holds at
// most one peer drawn from the arc [self+2^(i-1), self+2^i); the paper
// stresses the node "has much freedom in choosing its DHT peers", so any
// alive node in the arc is valid and entries are refreshed opportunistically
// from overheard routing traffic.
//
// The levels sit inline as 32-bit IDs, so a routing hop reads the table
// it already loaded instead of following a second pointer to a slice.
type Table struct {
	space Space
	self  ID
	// peers is indexed by level-1, and Vacant marks an empty slot; only
	// the space's first Levels() slots are used.
	peers [maxLevels]int32
}

// maxLevels is how many levels a Table holds inline: the widest space
// whose IDs fit its int32 slots, 2^31 (NewSpace refuses a wider one).
const maxLevels = 31

// Vacant marks an unfilled peer level.
const Vacant ID = -1

// NewTable returns an empty peer table for node self.
func NewTable(space Space, self ID) *Table {
	space.check(self)
	t := &Table{space: space, self: self}
	for i := range t.peers {
		t.peers[i] = int32(Vacant)
	}
	return t
}

// Self returns the owning node's ID.
func (t *Table) Self() ID { return t.self }

// Peer returns the current peer at the 1-based level, or Vacant.
func (t *Table) Peer(level int) ID {
	return ID(t.levels()[level-1])
}

// levels returns the space's levels of the inline array.
func (t *Table) levels() []int32 { return t.peers[:t.space.levels] }

// Peers returns all non-vacant peers in level order. The slice is freshly
// allocated.
func (t *Table) Peers() []ID {
	return t.AppendPeers(make([]ID, 0, t.space.levels))
}

// AppendPeers appends all non-vacant peers in level order to dst and
// returns the extended slice — the allocation-free form of Peers for
// callers that thread a reusable buffer.
func (t *Table) AppendPeers(dst []ID) []ID {
	for _, p := range t.levels() {
		if ID(p) != Vacant {
			dst = append(dst, ID(p))
		}
	}
	return dst
}

// Filled returns the number of non-vacant levels.
func (t *Table) Filled() int {
	n := 0
	for _, p := range t.levels() {
		if ID(p) != Vacant {
			n++
		}
	}
	return n
}

// Consider offers a (possibly overheard) node to the table. If the node
// falls in some level's arc the slot is refreshed to it — "All the DHT peers
// are periodically updated by the overheard nodes for renewal" — and
// Consider reports true. Offering self or an out-of-space ID is a no-op.
func (t *Table) Consider(id ID) bool {
	if id == t.self || id < 0 || int(id) >= t.space.N() {
		return false
	}
	level := t.space.LevelOf(t.self, id)
	if level == 0 {
		return false
	}
	t.peers[level-1] = int32(id)
	return true
}

// Evict removes id from whatever level it occupies (used when a peer is
// discovered dead). It reports whether anything changed.
func (t *Table) Evict(id ID) bool {
	level := t.space.LevelOf(t.self, id)
	if level == 0 || ID(t.peers[level-1]) != id {
		return false
	}
	t.peers[level-1] = int32(Vacant)
	return true
}

// Successor returns the clockwise-closest peer in the table — the node n1 of
// §4.3 that delimits this node's backup arc [self, n1). The second result is
// false when the table is empty. Levels are disjoint distance bands that
// widen upward (see hopAtOrBelow), so the lowest occupied level holds it.
func (t *Table) Successor() (ID, bool) {
	for _, p := range t.levels() {
		if ID(p) != Vacant {
			return ID(p), true
		}
	}
	return Vacant, false
}

// NextHop returns the peer that is clockwise-closest to target and strictly
// closer than self, implementing the greedy routing rule of §4.1. The second
// result is false when no peer improves on self ("until no closer peer can
// be found").
func (t *Table) NextHop(target ID) (ID, bool) {
	d := t.space.Clockwise(t.self, target)
	p, level := t.hopAtOrBelow(d, bits.Len(uint(d)))
	return p, level != 0
}

// hopAtOrBelow returns the best next hop toward a target at clockwise
// distance d among the peers at or below level, with the level it sits
// on (0 when none qualifies). Levels are disjoint distance bands —
// Consider, the only writer, files a peer under bits.Len of its distance
// — so every peer above level bits.Len(d) lies past the target, the peer
// on that level is the closest one unless it too is past the target, and
// below it the highest occupied level wins outright. A caller that finds
// the returned peer unusable continues the search from level-1.
func (t *Table) hopAtOrBelow(d, level int) (ID, int) {
	for ; level >= 1; level-- {
		p := ID(t.peers[level-1])
		if p != Vacant && t.space.Clockwise(t.self, p) <= d {
			return p, level
		}
	}
	return Vacant, 0
}
