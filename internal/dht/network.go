package dht

import (
	"math/bits"

	"continustreaming/internal/sim"
)

// Network is the simulated structured overlay: the set of alive nodes with
// their peer tables, which is the ground-truth membership that defines arc
// ownership. It backs both the standalone DHT experiments (Figure 3) and
// the on-demand retrieval path of the streaming system.
//
// Network is not safe for concurrent mutation; the simulation mutates it
// only between parallel phases. Everything routing and table repair touch
// — RouteTo, Owner, Alive, Table.NextHop, RepairTable's arc draws — only
// reads, so any number of goroutines may do so at once while nobody joins,
// leaves or edits a table.
type Network struct {
	space  Space
	tables []*Table // dense, indexed by ID; nil = not a member
	alive  Members  // id is a member iff tables[id] != nil
	// below[w] counts the members in bitmap words before w, which makes a
	// member's rank two loads and a popcount and a join or leave a pass
	// over one small counter per 64 ring slots — where a sorted ID list
	// costs a binary search per rank and moves half the population per
	// membership change.
	below []int32
}

// NewNetwork returns an empty network over space. Membership is a dense
// table array indexed by ID — the space is sized proportionally to the
// population, so the array stays small while the aliveness probes the
// routing and repair hot paths issue per hop become one bounds-checked
// load instead of a map lookup.
func NewNetwork(space Space) *Network {
	alive := NewMembers(space)
	return &Network{
		space:  space,
		tables: make([]*Table, space.N()),
		alive:  alive,
		below:  make([]int32, len(alive.words)),
	}
}

// Space returns the identifier space.
func (n *Network) Space() Space { return n.space }

// Size returns the number of alive nodes.
func (n *Network) Size() int { return n.alive.Len() }

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

// IDs returns the alive membership in ascending order, freshly listed:
// hoist the call out of loops.
func (n *Network) IDs() []ID {
	return n.alive.AppendTo(make([]ID, 0, n.Size()))
}

// Join adds a node and fills its peer table with one uniformly random alive
// node per non-empty level arc — the "loose" organisation: any node in the
// arc is a legal peer. Existing members are *not* told about the joiner
// here; in the full system they learn of it through overhearing and the
// join notification, which callers drive via Consider on individual tables.
// Join returns the new table, or nil if the id was already present.
func (n *Network) Join(id ID, rng *sim.RNG) *Table {
	n.space.check(id)
	if !n.alive.Add(id) {
		return nil
	}
	n.shiftBelow(id, 1)
	t := NewTable(n.space, id)
	n.tables[id] = t
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

// Leave removes a node. Other nodes' tables may still point at it until
// RepairTable evicts the entry; RouteTo steps over such a dead next hop to
// the best alive closer peer, so a walk fails only when none is left.
func (n *Network) Leave(id ID) {
	if !n.Alive(id) {
		return
	}
	n.tables[id] = nil
	n.alive.Remove(id)
	n.shiftBelow(id, -1)
}

// shiftBelow accounts for id joining (+1) or leaving (-1) in the counts of
// the bitmap words after its own.
func (n *Network) shiftBelow(id ID, by int32) {
	for w := int(id)>>6 + 1; w < len(n.below); w++ {
		n.below[w] += by
	}
}

// rank returns how many members have IDs below id, which may be the space
// size itself (an arc's exclusive upper end).
func (n *Network) rank(id ID) int {
	if int(id) >= n.space.N() {
		return n.Size()
	}
	w := int(id) >> 6
	return int(n.below[w]) + bits.OnesCount64(n.alive.words[w]&(1<<(uint(id)&63)-1))
}

// atRank returns the member with k members below it, 0 <= k < Size.
func (n *Network) atRank(k int) ID {
	lo, hi := 0, len(n.below)
	for hi-lo > 1 { // the last word whose preceding count is <= k
		if mid := int(uint(lo+hi) >> 1); int(n.below[mid]) <= k {
			lo = mid
		} else {
			hi = mid
		}
	}
	word := n.alive.words[lo]
	for k -= int(n.below[lo]); k > 0; k-- {
		word &= word - 1
	}
	return ID(lo<<6 + bits.TrailingZeros64(word))
}

// Owner returns the alive node that owns key: the node counter-clockwise
// closest to it (the largest alive ID <= key, wrapping). The second result
// is false when the network is empty. Every route ends here.
func (n *Network) Owner(key ID) (ID, bool) { return n.alive.AtOrBelow(key) }

// TrueSuccessor returns the alive node clockwise-closest after id (itself
// excluded). Used for graceful-leave handover targets and invariant checks.
func (n *Network) TrueSuccessor(id ID) (ID, bool) {
	succ, ok := n.alive.Above(id)
	return succ, ok && succ != id
}

// randomInArc picks a uniformly random alive node in the (possibly wrapped)
// arc [lo, hi).
func (n *Network) randomInArc(lo, hi ID, rng *sim.RNG) (ID, bool) {
	i := n.rank(lo)
	total := n.rank(hi) - i
	if lo >= hi {
		total += n.Size() // wrapped: [lo, N) then [0, hi)
	}
	if total <= 0 {
		return 0, false
	}
	k := i + rng.Intn(total)
	if k >= n.Size() {
		k -= n.Size()
	}
	return n.atRank(k), true
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

// RouteScratch is reusable routing state a caller threads through
// repeated RouteTo calls. Zero value is ready to use. With RecordPath
// set, each RouteTo resets and refills Path in place, so the recorded
// path is valid only until the next RouteTo with the same scratch;
// callers that retain paths must copy them out.
type RouteScratch struct {
	// RecordPath enables path recording into Path.
	RecordPath bool
	// Path holds the last recorded walk, origin first.
	Path []ID
}

// RouteTo performs greedy clockwise routing from the alive node from
// toward key target, walking real peer tables. A dead peer is stepped
// over — the walk takes the best alive closer peer, which is the one an
// evict-and-retry would reach — and stays in the table until RepairTable
// evicts it; if no alive closer peer remains, routing stops there. The
// walk is bounded by 4·log₂N + 4 hops (comfortably above the appendix
// bound of 2.41·log₂N) as a defensive guard against table corruption.
//
// RouteTo writes nothing but sc, so routes with distinct scratches may
// run concurrently. It allocates nothing: sc may be nil when the caller
// needs no path, and a warm scratch's buffer is reused across calls.
// This is the routing core the round pipeline's pre-fetch path runs on.
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
