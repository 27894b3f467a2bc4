package overlay

import (
	"fmt"

	"continustreaming/internal/dht"
	"continustreaming/internal/sim"
)

// Rendezvous is the RP server of §4.1: it hands each joining node a unique
// overlay ID and a short list of existing nodes with nearby IDs. It keeps
// only a partial membership list — joiners report failures back ("tells the
// RP server E's failure"), which is the server's only liveness feedback.
// Both of its sets are bitmaps over the ring, so nothing churn asks of it —
// an ID, a registration, a failure report, a release — costs more than a
// word, and a candidate list a few words either side of the joiner.
type Rendezvous struct {
	space dht.Space
	// known is the partial list of nodes the RP believes are alive.
	known dht.Members
	// used holds the IDs of nodes currently assigned, keeping every alive
	// node's ID unique. A dead node's ID returns to the pool via Release —
	// without recycling, a long churny run mints joiner IDs every round
	// and eventually exhausts any fixed ring (5% joins on 8000 nodes
	// allocate the paper's whole 16384-slot space within ~35 rounds).
	used dht.Members
}

// NewRendezvous returns an RP server for the given ring space.
func NewRendezvous(space dht.Space) *Rendezvous {
	return &Rendezvous{space: space, known: dht.NewMembers(space), used: dht.NewMembers(space)}
}

// AssignID allocates a uniformly random ring ID not held by any current
// assignment. It panics when every slot is held at once, which would mean
// more simultaneous nodes than ring positions — a misconfiguration, not a
// churn outcome.
func (rp *Rendezvous) AssignID(rng *sim.RNG) NodeID {
	if rp.used.Len() >= rp.space.N() {
		panic("overlay: ID space exhausted")
	}
	for {
		id := dht.ID(rng.Intn(rp.space.N()))
		if rp.used.Add(id) {
			return NodeID(id)
		}
	}
}

// AppendCandidates appends to dst up to max known nodes with IDs closest
// to id on the ring (by minimum of the two arc distances, the lower ID
// first among equals), closest first, id itself excluded — the "short list
// of several existing nodes which have close IDs".
//
// The closest nodes are found by a two-ended greedy walk outward from id,
// one cursor stepping clockwise through the known set and one counter-
// clockwise: O(max) short bitmap scans. The walk reproduces the (distance,
// ID)-sorted order exactly: clockwise distances strictly increase along
// the first cursor's path and counter-clockwise distances along the
// second's, so the globally closest unconsumed node is always under one of
// the two.
func (rp *Rendezvous) AppendCandidates(dst []NodeID, id NodeID, max int) []NodeID {
	self := dht.ID(id)
	remaining := rp.known.Len()
	if rp.known.Has(self) {
		remaining--
	}
	if max > remaining {
		max = remaining
	}
	minDist := func(k dht.ID) int {
		cw := rp.space.Clockwise(self, k)
		return min(cw, rp.space.N()-cw)
	}
	// With another known node left, neither cursor can come round to id
	// or pass the other: they meet on the last one.
	f, _ := rp.known.Above(self)
	b, _ := rp.known.AtOrBelow(rp.space.Wrap(int(self) - 1))
	for ; max > 0; max-- {
		df, db := minDist(f), minDist(b)
		if df < db || (df == db && f <= b) {
			dst = append(dst, NodeID(f))
			f, _ = rp.known.Above(f)
		} else {
			dst = append(dst, NodeID(b))
			b, _ = rp.known.AtOrBelow(rp.space.Wrap(int(b) - 1))
		}
	}
	return dst
}

// Register adds a successfully joined node to the partial list.
func (rp *Rendezvous) Register(id NodeID) { rp.known.Add(dht.ID(id)) }

// Release returns a dead node's ID to the assignable pool. The simulation
// calls it once the node is fully gone; the RP's membership list is
// unaffected (liveness knowledge still only arrives via ReportFailure, so
// the protocol's partial-knowledge realism is preserved).
func (rp *Rendezvous) Release(id NodeID) { rp.used.Remove(dht.ID(id)) }

// ReportFailure removes a node a joiner found dead.
func (rp *Rendezvous) ReportFailure(id NodeID) { rp.known.Remove(dht.ID(id)) }

// String summarizes the RP state for logs.
func (rp *Rendezvous) String() string {
	return fmt.Sprintf("rendezvous{known=%d assigned=%d space=%d}", rp.known.Len(), rp.used.Len(), rp.space.N())
}
