// Package overlay implements the unstructured half of the paper's hybrid
// overlay (§4.1): every node's Peer Table (M connected neighbours, log N
// DHT peers, H latest-overheard nodes), the Rendezvous Point join protocol,
// and the maintenance rules — neighbours that fail or supply little data
// are replaced by the lowest-latency overheard node, and all refresh
// traffic rides on overheard routing messages rather than dedicated
// control messages, which is what keeps maintenance cost low.
package overlay

import (
	"fmt"
	"sort"

	"continustreaming/internal/dht"
	"continustreaming/internal/sim"
)

// NodeID identifies an overlay node. It doubles as the node's DHT ring
// position (the RP server assigns unique IDs within the ring space).
type NodeID int

// PeerInfo is one row of the Connected Neighbors section of the Peer Table:
// identity plus the link measurements the schedulers consume.
type PeerInfo struct {
	ID NodeID
	// Latency is the measured one-way latency to the peer (RTT/2).
	Latency sim.Time
	// SupplyRate is the recent observed supply in segments/s, maintained by
	// the Rate Controller and mirrored here for replacement decisions.
	SupplyRate float64
}

// Overheard is one row of the Overheard Nodes section.
type Overheard struct {
	ID      NodeID
	Latency sim.Time
	// Seq orders entries by recency; larger is newer.
	Seq uint64
}

// DefaultH is the paper's overheard-list capacity: "H = 20 is usually
// enough according to our simulation experience."
const DefaultH = 20

// PeerTable is a node's complete view of the overlay. It is not safe for
// concurrent use; the simulation touches each table only from its owner's
// phase goroutine.
type PeerTable struct {
	self      NodeID
	m         int // connected-neighbour capacity
	h         int // overheard capacity
	neighbors []PeerInfo
	dhtPeers  *dht.Table
	overheard []Overheard
	seq       uint64
}

// NewPeerTable returns an empty table for node self with capacity m
// connected neighbours and h overheard entries over the given ring space.
func NewPeerTable(space dht.Space, self NodeID, m, h int) *PeerTable {
	if m <= 0 {
		panic(fmt.Sprintf("overlay: non-positive neighbour capacity %d", m))
	}
	if h <= 0 {
		h = DefaultH
	}
	return &PeerTable{
		self:     self,
		m:        m,
		h:        h,
		dhtPeers: dht.NewTable(space, dht.ID(self)),
	}
}

// Self returns the table owner's ID.
func (pt *PeerTable) Self() NodeID { return pt.self }

// M returns the connected-neighbour capacity.
func (pt *PeerTable) M() int { return pt.m }

// DHT exposes the structured-overlay peer levels.
func (pt *PeerTable) DHT() *dht.Table { return pt.dhtPeers }

// Neighbors returns the connected neighbours in ID order. Callers must not
// mutate the returned slice.
func (pt *PeerTable) Neighbors() []PeerInfo { return pt.neighbors }

// NeighborIDs returns just the connected neighbour IDs, ascending.
func (pt *PeerTable) NeighborIDs() []NodeID {
	out := make([]NodeID, len(pt.neighbors))
	for i, p := range pt.neighbors {
		out[i] = p.ID
	}
	return out
}

// IsNeighbor reports whether id is a connected neighbour.
func (pt *PeerTable) IsNeighbor(id NodeID) bool {
	_, ok := pt.findNeighbor(id)
	return ok
}

func (pt *PeerTable) findNeighbor(id NodeID) (int, bool) {
	// Manual binary search: maintenance overhears every routed message, so
	// this runs hot enough that sort.Search's per-probe closure call shows
	// up in profiles.
	nbrs := pt.neighbors
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbrs) && nbrs[lo].ID == id {
		return lo, true
	}
	return lo, false
}

// AddNeighbor connects a new neighbour if capacity allows and it is not the
// node itself or already connected. It reports success.
func (pt *PeerTable) AddNeighbor(info PeerInfo) bool {
	if info.ID == pt.self || len(pt.neighbors) >= pt.m {
		return false
	}
	i, exists := pt.findNeighbor(info.ID)
	if exists {
		return false
	}
	pt.neighbors = append(pt.neighbors, PeerInfo{})
	copy(pt.neighbors[i+1:], pt.neighbors[i:])
	pt.neighbors[i] = info
	return true
}

// AddNeighborLink inserts a neighbour without enforcing the M capacity.
// The simulation's world owns the authoritative edge set (trace hubs may
// exceed the M *target* after the paper's augmentation step); the peer
// table mirrors it. It still rejects self and duplicates.
func (pt *PeerTable) AddNeighborLink(info PeerInfo) bool {
	if info.ID == pt.self {
		return false
	}
	i, exists := pt.findNeighbor(info.ID)
	if exists {
		return false
	}
	pt.neighbors = append(pt.neighbors, PeerInfo{})
	copy(pt.neighbors[i+1:], pt.neighbors[i:])
	pt.neighbors[i] = info
	// A freshly connected neighbour also refreshes the DHT levels and must
	// not linger in the overheard list.
	pt.dhtPeers.Consider(dht.ID(info.ID))
	pt.ForgetOverheard(info.ID)
	return true
}

// RemoveNeighbor disconnects id, reporting whether it was connected.
func (pt *PeerTable) RemoveNeighbor(id NodeID) bool {
	i, ok := pt.findNeighbor(id)
	if !ok {
		return false
	}
	pt.neighbors = append(pt.neighbors[:i], pt.neighbors[i+1:]...)
	return true
}

// UpdateSupply refreshes the recent-supply column for neighbour id.
func (pt *PeerTable) UpdateSupply(id NodeID, rate float64) {
	if i, ok := pt.findNeighbor(id); ok {
		pt.neighbors[i].SupplyRate = rate
	}
}

// Hear records an overheard node, evicting the oldest entry when the list
// is full. Hearing about self or a current neighbour still refreshes the
// DHT levels but is not stored in the overheard list (neighbours are
// already tracked with better information).
func (pt *PeerTable) Hear(id NodeID, latency sim.Time) {
	if id == pt.self {
		return
	}
	pt.dhtPeers.Consider(dht.ID(id))
	if pt.IsNeighbor(id) {
		return
	}
	pt.seq++
	// One scan finds both the entry to refresh and, should the list be
	// full and id new, the oldest entry to replace (first among equals).
	oldest := 0
	for i := range pt.overheard {
		if pt.overheard[i].ID == id {
			pt.overheard[i].Latency = latency
			pt.overheard[i].Seq = pt.seq
			return
		}
		if pt.overheard[i].Seq < pt.overheard[oldest].Seq {
			oldest = i
		}
	}
	entry := Overheard{ID: id, Latency: latency, Seq: pt.seq}
	if len(pt.overheard) < pt.h {
		pt.overheard = append(pt.overheard, entry)
		return
	}
	pt.overheard[oldest] = entry
}

// OverheardNodes returns the overheard list ordered newest first.
func (pt *PeerTable) OverheardNodes() []Overheard {
	out := append([]Overheard(nil), pt.overheard...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// OverheardRaw returns the overheard list in internal storage order —
// deterministic for a deterministic operation history, but without the
// newest-first presentation of OverheardNodes. The allocation-free form
// for consumers that rank candidates themselves (PlanRewire dedups by ID
// and sorts by latency, so presentation order cannot affect it). Callers
// must not mutate the returned slice.
func (pt *PeerTable) OverheardRaw() []Overheard { return pt.overheard }

// ForgetOverheard drops id from the overheard list (e.g. discovered dead).
func (pt *PeerTable) ForgetOverheard(id NodeID) {
	for i := range pt.overheard {
		if pt.overheard[i].ID == id {
			pt.overheard = append(pt.overheard[:i], pt.overheard[i+1:]...)
			return
		}
	}
}

// TakeOverheard removes and returns the entry for id, used when promoting
// an overheard node to a connected neighbour.
func (pt *PeerTable) TakeOverheard(id NodeID) (Overheard, bool) {
	for i, o := range pt.overheard {
		if o.ID == id {
			pt.overheard = append(pt.overheard[:i], pt.overheard[i+1:]...)
			return o, true
		}
	}
	return Overheard{}, false
}

// CloneFrom seeds this (fresh) table from an existing node's table: the
// join protocol — "A gets B's Peer Table as the base of its own Peer Table".
// Neighbour links are NOT copied (connections are per-node TCP state);
// instead the donor's neighbours and overheard nodes become overheard
// candidates, and the DHT levels are re-derived for the new owner.
func (pt *PeerTable) CloneFrom(donor *PeerTable, latencyTo func(NodeID) sim.Time) {
	for _, nb := range donor.Neighbors() {
		pt.Hear(nb.ID, latencyTo(nb.ID))
	}
	for _, o := range donor.OverheardNodes() {
		pt.Hear(o.ID, latencyTo(o.ID))
	}
	pt.Hear(donor.Self(), latencyTo(donor.Self()))
}
