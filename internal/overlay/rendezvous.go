package overlay

import (
	"fmt"
	"sort"

	"continustreaming/internal/dht"
	"continustreaming/internal/sim"
)

// Rendezvous is the RP server of §4.1: it hands each joining node a unique
// overlay ID and a short list of existing nodes with nearby IDs. It keeps
// only a partial membership list — joiners report failures back ("tells the
// RP server E's failure"), which is the server's only liveness feedback.
type Rendezvous struct {
	space dht.Space
	// known is the partial list of nodes the RP believes are alive, sorted.
	known []NodeID
	// used tracks the IDs of nodes currently assigned, keeping every alive
	// node's ID unique. A dead node's ID returns to the pool via Release —
	// without recycling, a long churny run mints joiner IDs every round
	// and eventually exhausts any fixed ring (5% joins on 8000 nodes
	// allocate the paper's whole 16384-slot space within ~35 rounds).
	used map[NodeID]bool
}

// NewRendezvous returns an RP server for the given ring space.
func NewRendezvous(space dht.Space) *Rendezvous {
	return &Rendezvous{space: space, used: make(map[NodeID]bool)}
}

// AssignID allocates a uniformly random ring ID not held by any current
// assignment. It panics when every slot is held at once, which would mean
// more simultaneous nodes than ring positions — a misconfiguration, not a
// churn outcome.
func (rp *Rendezvous) AssignID(rng *sim.RNG) NodeID {
	if len(rp.used) >= rp.space.N() {
		panic("overlay: ID space exhausted")
	}
	for {
		id := NodeID(rng.Intn(rp.space.N()))
		if !rp.used[id] {
			rp.used[id] = true
			return id
		}
	}
}

// Candidates returns up to max known nodes with IDs closest to id on the
// ring (by minimum of the two arc distances), closest first — the "short
// list of several existing nodes which have close IDs".
//
// The list is kept sorted by ID, so the closest nodes are found by a
// binary search followed by a two-ended greedy walk outward from the
// insertion point: O(log known + max) instead of sorting the whole
// membership per call, which dominated whole-round profiles at 10k nodes
// (every join sorts the full list inside the sequential churn phase).
// The walk reproduces the (distance, ID)-sorted order exactly: viewed
// clockwise from id the candidates form one sequence whose clockwise
// distances strictly increase front to back and whose counter-clockwise
// distances strictly increase back to front, so the globally closest
// unconsumed node is always at one of the two ends.
func (rp *Rendezvous) Candidates(id NodeID, max int) []NodeID {
	known := rp.known
	if max <= 0 || len(known) == 0 {
		return nil
	}
	n := len(known)
	ringN := rp.space.N()
	// start is the first index holding an ID >= id; the virtual sequence
	// seq[t] = known[(start+t) % n] lists every known node in ascending
	// clockwise distance from id, with id itself (if present) at seq[0].
	start := sort.Search(n, func(i int) bool { return known[i] >= id })
	remaining := n
	if start < n && known[start] == id {
		start++
		remaining--
	}
	if remaining == 0 {
		return nil
	}
	if max > remaining {
		max = remaining
	}
	at := func(t int) NodeID { return known[(start+t)%n] }
	minDist := func(k NodeID) int {
		cw := rp.space.Clockwise(dht.ID(id), dht.ID(k))
		if ccw := ringN - cw; ccw < cw {
			return ccw
		}
		return cw
	}
	out := make([]NodeID, 0, max)
	f, b := 0, remaining-1
	for f <= b && len(out) < max {
		if f == b {
			out = append(out, at(f))
			break
		}
		ef, eb := at(f), at(b)
		df, db := minDist(ef), minDist(eb)
		if df < db || (df == db && ef < eb) {
			out = append(out, ef)
			f++
		} else {
			out = append(out, eb)
			b--
		}
	}
	return out
}

// Register adds a successfully joined node to the partial list.
func (rp *Rendezvous) Register(id NodeID) {
	i := sort.Search(len(rp.known), func(i int) bool { return rp.known[i] >= id })
	if i < len(rp.known) && rp.known[i] == id {
		return
	}
	rp.known = append(rp.known, 0)
	copy(rp.known[i+1:], rp.known[i:])
	rp.known[i] = id
}

// Release returns a dead node's ID to the assignable pool. The simulation
// calls it once the node is fully gone; the RP's membership list is
// unaffected (liveness knowledge still only arrives via ReportFailure, so
// the protocol's partial-knowledge realism is preserved).
func (rp *Rendezvous) Release(id NodeID) {
	delete(rp.used, id)
}

// ReportFailure removes a node a joiner found dead.
func (rp *Rendezvous) ReportFailure(id NodeID) {
	i := sort.Search(len(rp.known), func(i int) bool { return rp.known[i] >= id })
	if i < len(rp.known) && rp.known[i] == id {
		rp.known = append(rp.known[:i], rp.known[i+1:]...)
	}
}

// String summarizes the RP state for logs.
func (rp *Rendezvous) String() string {
	return fmt.Sprintf("rendezvous{known=%d assigned=%d space=%d}", len(rp.known), len(rp.used), rp.space.N())
}
