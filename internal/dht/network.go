package dht

import (
	"math/bits"

	"continustreaming/internal/sim"
)

// Network is the simulated structured overlay: the set of alive nodes with
// their peer tables, plus the ground-truth sorted membership used to define
// arc ownership. It backs both the standalone DHT experiments (Figure 3)
// and the on-demand retrieval path of the streaming system.
//
// Network is not safe for concurrent mutation; the simulation mutates it
// only between parallel phases. Everything routing touches — RouteTo,
// Owner, Alive, Table.NextHop — only reads, so any number of goroutines
// may route at once while nobody joins, leaves or edits a table.
type Network struct {
	space  Space
	tables []*Table // dense, indexed by ID; nil = not a member
	sorted []ID     // alive IDs, ascending
	alive  []uint64 // membership bitmap, bit id set iff tables[id] != nil
}

// NewNetwork returns an empty network over space. Membership is a dense
// table array indexed by ID — the space is sized proportionally to the
// population, so the array stays small while the aliveness probes the
// routing and repair hot paths issue per hop become one bounds-checked
// load instead of a map lookup.
func NewNetwork(space Space) *Network {
	return &Network{
		space:  space,
		tables: make([]*Table, space.N()),
		alive:  make([]uint64, (space.N()+63)/64),
	}
}

// Space returns the identifier space.
func (n *Network) Space() Space { return n.space }

// Size returns the number of alive nodes.
func (n *Network) Size() int { return len(n.sorted) }

// Alive reports whether id is currently a member.
func (n *Network) Alive(id ID) bool {
	return id >= 0 && int(id) < len(n.tables) && n.tables[id] != nil
}

// Table returns the peer table of an alive node, or nil.
func (n *Network) Table(id ID) *Table {
	if id < 0 || int(id) >= len(n.tables) {
		return nil
	}
	return n.tables[id]
}

// IDs returns the alive membership in ascending order. Callers must not
// mutate the returned slice.
func (n *Network) IDs() []ID { return n.sorted }

// Join adds a node and fills its peer table with one uniformly random alive
// node per non-empty level arc — the "loose" organisation: any node in the
// arc is a legal peer. Existing members are *not* told about the joiner
// here; in the full system they learn of it through overhearing and the
// join notification, which callers drive via Consider on individual tables.
// Join returns the new table, or nil if the id was already present.
func (n *Network) Join(id ID, rng *sim.RNG) *Table {
	n.space.check(id)
	if n.Alive(id) {
		return nil
	}
	t := NewTable(n.space, id)
	n.insertSorted(id)
	n.tables[id] = t
	n.alive[id>>6] |= 1 << (uint(id) & 63)
	n.FillTable(t, rng)
	return t
}

// FillTable (re)fills every level of t with a uniformly random alive node
// from that level's arc, when one exists. Levels whose arcs hold no alive
// node are left vacant.
func (n *Network) FillTable(t *Table, rng *sim.RNG) {
	for level := 1; level <= n.space.Levels(); level++ {
		lo, hi := n.space.LevelArc(t.Self(), level)
		if p, ok := n.randomInArc(lo, hi, rng); ok {
			t.Consider(p)
		}
	}
}

// Leave removes a node. Other nodes' tables may still point at it; routing
// treats dead next-hops as failures unless the caller repairs tables, which
// mirrors reality and is what makes query success dip below 1.0 under churn.
func (n *Network) Leave(id ID) {
	if !n.Alive(id) {
		return
	}
	n.tables[id] = nil
	n.alive[id>>6] &^= 1 << (uint(id) & 63)
	i := searchIDs(n.sorted, id)
	n.sorted = append(n.sorted[:i], n.sorted[i+1:]...)
}

// searchIDs returns the first index i with ids[i] >= key: sort.Search
// without the per-probe closure call, which matters on the routing and
// repair paths that consult the membership every hop.
func searchIDs(ids []ID, key ID) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (n *Network) insertSorted(id ID) {
	i := searchIDs(n.sorted, id)
	n.sorted = append(n.sorted, 0)
	copy(n.sorted[i+1:], n.sorted[i:])
	n.sorted[i] = id
}

// Owner returns the alive node that owns key: the node counter-clockwise
// closest to it (the largest alive ID <= key, wrapping). The second result
// is false when the network is empty. It reads the membership bitmap —
// the highest set bit at or below key — because every route ends here.
func (n *Network) Owner(key ID) (ID, bool) {
	if len(n.sorted) == 0 {
		return 0, false
	}
	wi := int(key) >> 6
	word := n.alive[wi] & (^uint64(0) >> (63 - uint(key)&63))
	for word == 0 {
		// Nothing at or below key in this word: step down, wrapping past
		// zero to the top of the ring. The network is non-empty, so the
		// walk ends at the latest back in key's own word, whose bits above
		// key are then the wrapped answer.
		if wi--; wi < 0 {
			wi = len(n.alive) - 1
		}
		word = n.alive[wi]
	}
	return ID(wi<<6 + 63 - bits.LeadingZeros64(word)), true
}

// TrueSuccessor returns the alive node clockwise-closest after id (itself
// excluded). Used for graceful-leave handover targets and invariant checks.
func (n *Network) TrueSuccessor(id ID) (ID, bool) {
	if len(n.sorted) == 0 {
		return 0, false
	}
	// Lowest set bit strictly above id, wrapping; coming back round to id
	// itself means it is the only member.
	wi := int(id) >> 6
	word := n.alive[wi] & (^uint64(1) << (uint(id) & 63))
	for word == 0 {
		if wi++; wi == len(n.alive) {
			wi = 0
		}
		word = n.alive[wi]
	}
	succ := ID(wi<<6 + bits.TrailingZeros64(word))
	return succ, succ != id
}

// randomInArc picks a uniformly random alive node in the (possibly wrapped)
// arc [lo, hi).
func (n *Network) randomInArc(lo, hi ID, rng *sim.RNG) (ID, bool) {
	ids := n.sorted
	if len(ids) == 0 {
		return 0, false
	}
	pickRange := func(a, b ID) (int, int) { // indices of alive ids in [a,b)
		return searchIDs(ids, a), searchIDs(ids, b)
	}
	if lo < hi {
		i, j := pickRange(lo, hi)
		if j <= i {
			return 0, false
		}
		return ids[i+rng.Intn(j-i)], true
	}
	// Wrapped arc: [lo, N) ∪ [0, hi).
	i1, j1 := pickRange(lo, ID(n.space.N()))
	i2, j2 := pickRange(0, hi)
	total := (j1 - i1) + (j2 - i2)
	if total == 0 {
		return 0, false
	}
	k := rng.Intn(total)
	if k < j1-i1 {
		return ids[i1+k], true
	}
	return ids[i2+k-(j1-i1)], true
}

// RouteOutcome is the allocation-free routing result: everything a hot
// caller needs without materialising the walked path.
type RouteOutcome struct {
	// Final is the node where greedy routing stopped.
	Final ID
	// Hops is the number of forwarding steps taken.
	Hops int
	// Success reports whether Final is the true owner of the target key.
	Success bool
}

// StaleHop names a forwarding-table entry a walk found dead: node At's
// table still lists Peer, which has left.
type StaleHop struct {
	At, Peer ID
}

// RouteScratch is reusable routing state a caller threads through
// repeated RouteTo calls. Zero value is ready to use. With RecordPath
// set, each RouteTo resets and refills Path in place, so the recorded
// path is valid only until the next RouteTo with the same scratch;
// callers that retain paths must copy them out. Stale is append-only:
// the caller drains it with EvictStale and resets it.
type RouteScratch struct {
	// RecordPath enables path recording into Path.
	RecordPath bool
	// Path holds the last recorded walk, origin first.
	Path []ID
	// Stale accumulates every dead entry the walks stepped over.
	Stale []StaleHop
}

// RouteTo performs greedy clockwise routing from the alive node from
// toward key target, walking real peer tables. A dead peer is stepped
// over — the walk takes the best alive closer peer, which is the one an
// evict-and-retry would reach — and listed in sc.Stale; if no alive
// closer peer remains, routing stops there. The walk is bounded by
// 4·log₂N + 4 hops (comfortably above the appendix bound of
// 2.41·log₂N) as a defensive guard against table corruption.
//
// RouteTo writes nothing but sc, so routes with distinct scratches may
// run concurrently; the dead entries stay in the tables until the caller
// passes the collected list to EvictStale. It allocates nothing: sc may
// be nil when the caller needs neither the path nor the stale list, and
// a warm scratch's buffers are reused across calls. This is the routing
// core the round pipeline's pre-fetch and rescue paths run on.
func (n *Network) RouteTo(from, target ID, sc *RouteScratch) RouteOutcome {
	record := sc != nil && sc.RecordPath
	if record {
		sc.Path = append(sc.Path[:0], from)
	}
	var out RouteOutcome
	cur := from
	maxHops := 4*n.space.Levels() + 4
	for hops := 0; hops < maxHops; hops++ {
		t := n.Table(cur)
		if t == nil {
			break // origin is not a member; count as failure
		}
		d := n.space.Clockwise(cur, target)
		next, level := t.hopAtOrBelow(d, bits.Len(uint(d)))
		for level != 0 && !n.Alive(next) {
			if sc != nil {
				sc.Stale = append(sc.Stale, StaleHop{At: cur, Peer: next})
			}
			next, level = t.hopAtOrBelow(d, level-1)
		}
		if level == 0 {
			break
		}
		cur = next
		out.Hops++
		if record {
			sc.Path = append(sc.Path, cur)
		}
		// Arrived exactly on the target ID: the owner by definition.
		if cur == target {
			break
		}
	}
	out.Final = cur
	owner, ok := n.Owner(target)
	out.Success = ok && owner == cur
	return out
}

// EvictStale removes the listed dead entries from their forwarding
// tables. Entries already gone (listed by several walks) or whose peer
// ID is a member again are left alone, so applying a list twice changes
// nothing.
func (n *Network) EvictStale(stale []StaleHop) {
	for _, h := range stale {
		if t := n.Table(h.At); t != nil && !n.Alive(h.Peer) {
			t.Evict(h.Peer)
		}
	}
}
