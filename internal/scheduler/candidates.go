package scheduler

import (
	mathbits "math/bits"
	"slices"

	"continustreaming/internal/buffer"
	"continustreaming/internal/segment"
)

// NeighborWords is one live neighbour's advertised availability during
// candidate enumeration, aligned to the requester's fetch-window origin:
// bit i of Bits reports the neighbour holding segment origin+i. Both
// runtimes build it — the simulator from the neighbours' live buffer
// words, which already share the origin, the livenet from period-stale
// maps re-based with buffer.Map.WordsFrom.
type NeighborWords struct {
	// Node is the neighbour's ID and Rate its estimated service rate
	// (the Supplier fields every entry of this neighbour carries).
	Node int
	Rate float64
	// Tail is the neighbour's PositionFromTail of bit 0: its advertised
	// window's upper bound minus the origin. Bit i sits at Tail-i.
	Tail int
	Bits []uint64
}

// Enumeration is the one candidate enumeration both runtimes schedule
// from, with the grow-only buffers it carves its output from; a requester
// (or the shard scheduling it) keeps one and reuses it every period.
type Enumeration struct {
	union []uint64
	sup   []Supplier
	cands []Candidate
}

// Candidates lists the segments worth requesting this round among the
// width IDs from origin, each with the live neighbours that advertise it.
// A segment is wanted when some neighbour's word shows it and none of three
// masks removes it: own, the requester's availability words at the same
// origin (it already holds the segment); the tail of the last word past
// width; and track, the requester's in-flight record (a request or a
// pre-fetch for it is still out in round). Candidates emerge with IDs
// ascending and suppliers in live order, and alias the Enumeration's
// buffers until its next call.
func (e *Enumeration) Candidates(live []NeighborWords, own []uint64, width int, origin segment.ID, track *buffer.Track, round int) []Candidate {
	if len(live) == 0 || width <= 0 {
		return nil
	}
	nw := (width + 63) / 64
	e.union = slices.Grow(e.union[:0], nw)[:nw]
	union := e.union
	clear(union)
	for i := range live {
		for wi, w := range live[i].Bits[:nw] {
			union[wi] |= w
		}
	}
	for wi := range union {
		union[wi] &^= own[wi]
	}
	if r := uint(width) & 63; r != 0 {
		union[nw-1] &= 1<<r - 1
	}
	track.MaskInFlight(union, origin, round)
	var any uint64
	for _, w := range union {
		any |= w
	}
	if any == 0 {
		return nil
	}
	e.sup, e.cands = fillCandidates(e.sup[:0], e.cands[:0], live, union, origin)
	return e.cands
}

// fillCandidates materialises one Candidate per set bit of union (bit i is
// segment lo+i), listing the live neighbours that advertise it.
//
// Supplier entries are appended to arena and candidates to cands; both
// grown slices are returned so callers can recycle them. Per-candidate
// supplier lists are capacity-capped subslices of the arena, so later
// appends never alias them; they stay valid until the caller truncates
// the arena.
func fillCandidates(arena []Supplier, cands []Candidate, live []NeighborWords, union []uint64, lo segment.ID) ([]Supplier, []Candidate) {
	// The word fill counts holders in six bit planes.
	if len(live) > 63 {
		return fillCandidatesScalar(arena, cands, live, union, lo)
	}
	return fillCandidatesWord(arena, cands, live, union, lo)
}

// fillCandidatesWord fills by positional popcount: six bit-sliced vertical
// counter planes accumulate, per bit lane, how many live neighbours
// advertise the segment (plane p holds bit p of every lane's count; the
// ripple-carry add is branch-free per neighbour word), the supplier arena
// is carved into exactly-sized per-candidate runs from those counts, and
// one masked-word pass per neighbour fills the runs at each lane's cursor.
// The per-(segment, neighbour) membership probes of the scalar fill
// collapse into word ANDs, while the output stays the exact scalar output.
// Counts ride in six planes, so at most 63 live neighbours.
func fillCandidatesWord(arena []Supplier, cands []Candidate, live []NeighborWords, union []uint64, lo segment.ID) ([]Supplier, []Candidate) {
	// starts/next entries are read only at set bits of the current word,
	// which the same iteration always writes first — no per-word clearing.
	var starts, next [64]int32
	for wi, word := range union {
		if word == 0 {
			continue
		}
		var c0, c1, c2, c3, c4, c5 uint64
		for i := range live {
			x := live[i].Bits[wi] & word
			carry := c0 & x
			c0 ^= x
			x = carry
			carry = c1 & x
			c1 ^= x
			x = carry
			carry = c2 & x
			c2 ^= x
			x = carry
			carry = c3 & x
			c3 ^= x
			x = carry
			carry = c4 & x
			c4 ^= x
			c5 ^= carry
		}
		base := len(arena)
		off := base
		m := word
		for m != 0 {
			k := mathbits.TrailingZeros64(m)
			m &= m - 1
			cnt := int((c0 >> uint(k)) & 1)
			cnt |= int((c1>>uint(k))&1) << 1
			cnt |= int((c2>>uint(k))&1) << 2
			cnt |= int((c3>>uint(k))&1) << 3
			cnt |= int((c4>>uint(k))&1) << 4
			cnt |= int((c5>>uint(k))&1) << 5
			starts[k] = int32(off)
			next[k] = int32(off)
			off += cnt
		}
		arena = slices.Grow(arena, off-base)[:off]
		for i := range live {
			ns := &live[i]
			x := ns.Bits[wi] & word
			for x != 0 {
				k := mathbits.TrailingZeros64(x)
				x &= x - 1
				p := next[k]
				next[k] = p + 1
				arena[p] = Supplier{
					Node:             ns.Node,
					Rate:             ns.Rate,
					PositionFromTail: ns.Tail - (wi*64 + k),
				}
			}
		}
		m = word
		for m != 0 {
			k := mathbits.TrailingZeros64(m)
			m &= m - 1
			a, e := int(starts[k]), int(next[k])
			cands = append(cands, Candidate{ID: lo + segment.ID(wi*64+k), Suppliers: arena[a:e:e]})
		}
	}
	return arena, cands
}

// fillCandidatesScalar is the per-bit fill over the union words: for each
// candidate bit it probes every live neighbour's word individually. Kept
// as the wide-neighbourhood fallback and as the differential oracle for
// fillCandidatesWord, whose output it matches entry for entry.
func fillCandidatesScalar(arena []Supplier, cands []Candidate, live []NeighborWords, union []uint64, lo segment.ID) ([]Supplier, []Candidate) {
	for wi, word := range union {
		for word != 0 {
			k := wi*64 + mathbits.TrailingZeros64(word)
			word &= word - 1
			a := len(arena)
			bit := uint64(1) << (uint(k) & 63)
			for i := range live {
				ns := &live[i]
				if ns.Bits[wi]&bit == 0 {
					continue
				}
				arena = append(arena, Supplier{
					Node:             ns.Node,
					Rate:             ns.Rate,
					PositionFromTail: ns.Tail - k,
				})
			}
			cands = append(cands, Candidate{ID: lo + segment.ID(k), Suppliers: arena[a:len(arena):len(arena)]})
		}
	}
	return arena, cands
}
