// Package overlay implements the unstructured half of the paper's hybrid
// overlay (§4.1): every node's Peer Table (M connected neighbours, log N
// DHT peers, H latest-overheard nodes), the Rendezvous Point join protocol,
// and the maintenance rules — neighbours that fail or supply little data
// are replaced by the lowest-latency overheard node, and all refresh
// traffic rides on overheard routing messages rather than dedicated
// control messages, which is what keeps maintenance cost low.
package overlay

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"continustreaming/internal/dht"
	"continustreaming/internal/sim"
)

// NodeID identifies an overlay node. It doubles as the node's DHT ring
// position (the RP server assigns unique IDs within the ring space).
type NodeID int

// Overheard is one row of the Overheard Nodes section, as the table hands
// it out (OverheardNodes, OverheardRaw, TakeOverheard).
type Overheard struct {
	ID      NodeID
	Latency sim.Time
	// Seq orders entries by recency; larger is newer.
	Seq uint64
}

// heardRow is how the table stores an Overheard row, in 16 bytes: its ID
// and latency are narrowed to int32 by Hear, which panics on either past
// the bound.
type heardRow struct {
	id  int32
	lat int32 // ms
	seq uint64
}

func (r heardRow) view() Overheard {
	return Overheard{ID: NodeID(r.id), Latency: sim.Time(r.lat), Seq: r.seq}
}

// PeerTable is a node's complete view of the overlay, and the one home of
// each part of it: the connected-neighbour set (ascending IDs — the edge
// set of the mesh is the union of these lists, kept symmetric by whoever
// links two tables), the DHT peer levels — the very table the structured
// overlay routes through, so what the node overhears renews the levels
// its lookups walk — and the H latest-overheard nodes. Link measurements
// live with the Rate Controller, not here. It is not safe for concurrent
// use; the simulation touches each table only from its owner's phase
// goroutine, and never while routes are being walked.
//
// The overheard rows are stored compact (heardRow) and handed out as
// Overheard copies; no method returns the table's own row storage.
type PeerTable struct {
	self      NodeID
	h         int      // overheard capacity
	neighbors []NodeID // ascending
	dhtPeers  *dht.Table
	overheard []heardRow
	seq       uint64
}

// NewPeerTable returns a table for node self with no neighbours, room
// for h overheard entries, and levels as its DHT peer levels — the table
// the node's DHT membership gave it (dht.Network.Join), shared, not
// copied. The connected-neighbour list is unbounded: M is a degree target
// the maintenance rules steer toward (trace hubs exceed it after the
// paper's augmentation step), not a capacity.
func NewPeerTable(self NodeID, h int, levels *dht.Table) *PeerTable {
	if h <= 0 {
		panic(fmt.Sprintf("overlay: non-positive overheard capacity %d", h))
	}
	return &PeerTable{self: self, h: h, dhtPeers: levels}
}

// Self returns the table owner's ID.
func (pt *PeerTable) Self() NodeID { return pt.self }

// DHT exposes the structured-overlay peer levels.
func (pt *PeerTable) DHT() *dht.Table { return pt.dhtPeers }

// Neighbors returns the connected neighbours, ascending. The slice is the
// table's own: callers must not mutate it, and must copy it before
// adding or removing links while iterating or retaining the list.
func (pt *PeerTable) Neighbors() []NodeID { return pt.neighbors }

// Reserve makes room in the neighbour list for n links in all, so the
// links added up to that many allocate nothing.
func (pt *PeerTable) Reserve(n int) {
	if n > cap(pt.neighbors) {
		pt.neighbors = append(make([]NodeID, 0, n), pt.neighbors...)
	}
}

// IsNeighbor reports whether id is a connected neighbour.
func (pt *PeerTable) IsNeighbor(id NodeID) bool {
	_, ok := slices.BinarySearch(pt.neighbors, id)
	return ok
}

// AddNeighborLink connects id, reporting whether the link is new: self
// and an already connected neighbour are rejected. The other endpoint's
// table is the caller's to update.
func (pt *PeerTable) AddNeighborLink(id NodeID) bool {
	if id == pt.self {
		return false
	}
	i, exists := slices.BinarySearch(pt.neighbors, id)
	if exists {
		return false
	}
	pt.neighbors = slices.Insert(pt.neighbors, i, id)
	// A freshly connected neighbour also refreshes the DHT levels and must
	// not linger in the overheard list.
	pt.dhtPeers.Consider(dht.ID(id))
	pt.ForgetOverheard(id)
	return true
}

// RemoveNeighbor disconnects id, reporting whether it was connected.
func (pt *PeerTable) RemoveNeighbor(id NodeID) bool {
	i, ok := slices.BinarySearch(pt.neighbors, id)
	if !ok {
		return false
	}
	pt.neighbors = slices.Delete(pt.neighbors, i, i+1)
	return true
}

// Hear records an overheard node, evicting the oldest entry when the list
// is full. Hearing about self or a current neighbour still refreshes the
// DHT levels but is not stored in the overheard list (neighbours are
// already tracked with better information). An ID or a latency (ms) past
// the int32 bound of a stored row panics.
func (pt *PeerTable) Hear(id NodeID, latency sim.Time) {
	if id == pt.self {
		return
	}
	pt.dhtPeers.Consider(dht.ID(id))
	if pt.IsNeighbor(id) {
		return
	}
	id32, lat32 := narrow32("node ID", int64(id)), narrow32("latency (ms)", int64(latency))
	pt.seq++
	// One scan finds both the entry to refresh and, should the list be
	// full and id new, the oldest entry to replace (first among equals).
	oldest := 0
	for i := range pt.overheard {
		if pt.overheard[i].id == id32 {
			pt.overheard[i].lat = lat32
			pt.overheard[i].seq = pt.seq
			return
		}
		if pt.overheard[i].seq < pt.overheard[oldest].seq {
			oldest = i
		}
	}
	entry := heardRow{id: id32, lat: lat32, seq: pt.seq}
	if len(pt.overheard) < pt.h {
		if pt.overheard == nil {
			pt.overheard = make([]heardRow, 0, pt.h)
		}
		pt.overheard = append(pt.overheard, entry)
		return
	}
	pt.overheard[oldest] = entry
}

// narrow32 narrows v, a node ID or a latency in ms, to a stored row's
// int32 field.
func narrow32(what string, v int64) int32 {
	if v < math.MinInt32 || v > math.MaxInt32 {
		panic(fmt.Sprintf("overlay: %s %d is past the int32 bound %d of an overheard row", what, v, math.MaxInt32))
	}
	return int32(v)
}

// OverheardNodes returns the overheard list ordered newest first, written
// over dst's backing array (nil allocates). Every Hear stamps the next Seq
// of its table, so no two entries compare equal: the order is total and
// the sorting algorithm cannot move it.
func (pt *PeerTable) OverheardNodes(dst []Overheard) []Overheard {
	dst = pt.OverheardRaw(dst[:0])
	slices.SortFunc(dst, func(a, b Overheard) int { return cmp.Compare(b.Seq, a.Seq) })
	return dst
}

// OverheardRaw appends the overheard list to dst in internal storage
// order — deterministic for a deterministic operation history, but
// without the newest-first presentation of OverheardNodes — and returns
// the extended slice. The sort-free form for consumers that rank
// candidates themselves (PlanRewire dedups by ID and sorts by latency, so
// presentation order cannot affect it); over scratch with room for the
// list it allocates nothing.
func (pt *PeerTable) OverheardRaw(dst []Overheard) []Overheard {
	for _, r := range pt.overheard {
		dst = append(dst, r.view())
	}
	return dst
}

// find returns the index of id's overheard row, or -1. An ID past the
// int32 bound cannot have been heard.
func (pt *PeerTable) find(id NodeID) int {
	if id < math.MinInt32 || id > math.MaxInt32 {
		return -1
	}
	for i := range pt.overheard {
		if pt.overheard[i].id == int32(id) {
			return i
		}
	}
	return -1
}

// ForgetOverheard drops id from the overheard list (e.g. discovered dead).
func (pt *PeerTable) ForgetOverheard(id NodeID) {
	if i := pt.find(id); i >= 0 {
		pt.overheard = append(pt.overheard[:i], pt.overheard[i+1:]...)
	}
}

// TakeOverheard removes and returns the entry for id, used when promoting
// an overheard node to a connected neighbour.
func (pt *PeerTable) TakeOverheard(id NodeID) (Overheard, bool) {
	i := pt.find(id)
	if i < 0 {
		return Overheard{}, false
	}
	o := pt.overheard[i].view()
	pt.overheard = append(pt.overheard[:i], pt.overheard[i+1:]...)
	return o, true
}

// CloneFrom seeds this (fresh) table from an existing node's table: the
// join protocol — "A gets B's Peer Table as the base of its own Peer Table".
// Neighbour links are NOT copied (connections are per-node TCP state);
// instead the donor's neighbours and overheard nodes become overheard
// candidates, and the DHT levels are re-derived for the new owner. The
// donor's overheard list is ordered on scratch, which is returned for the
// next call.
func (pt *PeerTable) CloneFrom(donor *PeerTable, scratch []Overheard, latencyTo func(NodeID) sim.Time) []Overheard {
	for _, nb := range donor.Neighbors() {
		pt.Hear(nb, latencyTo(nb))
	}
	scratch = donor.OverheardNodes(scratch)
	for _, o := range scratch {
		pt.Hear(o.ID, latencyTo(o.ID))
	}
	pt.Hear(donor.Self(), latencyTo(donor.Self()))
	return scratch
}
