// Package dht implements the paper's loosely-organized structured overlay
// (§4.1): a ring identifier space of size N in which every node keeps log N
// "DHT peers" ordered in levels — the level-i peer of node n may be *any*
// node in [n+2^(i-1), n+2^i) — and routing proceeds by a simple greedy rule:
// each hop forwards to the clockwise-closest known peer to the destination,
// until no closer peer exists. The appendix proves an upper bound of
// log N / log(4/3) ≈ 2.41·log₂N hops, which the tests verify empirically.
//
// The same package provides arc ownership (a key is owned by the alive node
// counter-clockwise closest to it) and the VoD backup placement rule of
// §4.3: segment id is replicated on the owners of hash(id·i) % N, i = 1..k.
package dht

import (
	"fmt"
	"math/bits"
)

// ID is a position in the ring identifier space [0, N).
type ID int

// Space describes a ring identifier space. N must be a power of two so that
// level ranges tile the ring exactly.
type Space struct {
	n      int
	levels int // log2(n)
}

// NewSpace returns the ring of size n. It panics unless n is a power of two
// and at least 2, matching the paper's "N is the maximum number of nodes the
// overlay can accommodate, i.e. the size of ID space", and unless its IDs
// fit the 32-bit levels a Table holds inline (n <= 2^31).
func NewSpace(n int) Space {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dht: space size %d is not a power of two >= 2", n))
	}
	levels := bits.Len(uint(n)) - 1
	if levels > maxLevels {
		panic(fmt.Sprintf("dht: space size %d holds IDs past the %d levels a table keeps inline", n, maxLevels))
	}
	return Space{n: n, levels: levels}
}

// N returns the size of the identifier space.
func (s Space) N() int { return s.n }

// Levels returns log₂N, the number of DHT peer levels.
func (s Space) Levels() int { return s.levels }

// Wrap maps an arbitrary integer onto the ring.
func (s Space) Wrap(v int) ID {
	v %= s.n
	if v < 0 {
		v += s.n
	}
	return ID(v)
}

// Clockwise returns the clockwise distance from a to b: the number of steps
// needed to reach b from a moving in increasing-ID direction.
func (s Space) Clockwise(a, b ID) int {
	d := int(b) - int(a)
	if d < 0 {
		d += s.n
	}
	return d
}

// InArc reports whether x lies in the half-open clockwise arc [lo, hi).
// The arc may wrap around zero; when lo == hi the arc is empty.
func (s Space) InArc(x, lo, hi ID) bool {
	if lo == hi {
		return false
	}
	if lo < hi {
		return x >= lo && x < hi
	}
	return x >= lo || x < hi
}

// LevelArc returns the arc [self+2^(level-1), self+2^level) in which node
// self's level-`level` DHT peer must lie. Levels are 1-based, as in the
// paper's Peer Table figure. The top level's arc covers half the ring.
func (s Space) LevelArc(self ID, level int) (lo, hi ID) {
	if level < 1 || level > s.levels {
		panic(fmt.Sprintf("dht: level %d out of range 1..%d", level, s.levels))
	}
	return s.Wrap(int(self) + 1<<(level-1)), s.Wrap(int(self) + 1<<level)
}

// LevelOf returns which peer level the node other would occupy in self's
// table, or 0 when other == self (no level).
func (s Space) LevelOf(self, other ID) int {
	d := s.Clockwise(self, other)
	if d == 0 {
		return 0
	}
	return bits.Len(uint(d)) // d in [2^(l-1), 2^l) ⇒ bits.Len(d) == l
}

// check panics when an ID is outside the space; used by constructors that
// accept external IDs.
func (s Space) check(id ID) {
	if id < 0 || int(id) >= s.n {
		panic(fmt.Sprintf("dht: id %d outside space [0,%d)", id, s.n))
	}
}
