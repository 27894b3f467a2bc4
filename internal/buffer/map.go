package buffer

import (
	"encoding/binary"
	"fmt"

	"continustreaming/internal/segment"
)

// Map is the buffer availability summary a node sends to each connected
// neighbour every scheduling period: the window's first segment ID plus one
// availability bit per window slot. With the paper's B = 600 this is the
// 620-bit message costed in §5.4.2 (20-bit head ID + 600-bit bitmap).
type Map struct {
	Lo   segment.ID
	Bits []uint64
	Size int
}

// HeadIDBits is the number of bits the wire format spends on the head
// segment ID. The paper picks 20 because a source emits at most
// 3600·10·24 = 864000 < 2^20 segments per day-long session.
const HeadIDBits = 20

// WireBits returns the control-message size in bits for a map over a window
// of size segments: HeadIDBits + size. For B = 600 this is 620.
func WireBits(size int) int64 { return int64(HeadIDBits + size) }

// Has reports whether the map advertises segment id.
func (m Map) Has(id segment.ID) bool {
	if id < m.Lo || id >= m.Lo+segment.ID(m.Size) {
		return false
	}
	i := int(id - m.Lo)
	return m.Bits[i/64]&(1<<(i%64)) != 0
}

// PositionFromTail returns pij, the paper's FIFO position of segment id
// measured from the insertion (newest) end of the advertised window: old
// segments — those about to be evicted — have positions near B, so pij/B
// is the probability the segment is replaced soon. The requesting node
// computes its neighbours' positions from their maps; the second result is
// false when the id is outside the window or absent.
func (m Map) PositionFromTail(id segment.ID) (int, bool) {
	if !m.Has(id) {
		return 0, false
	}
	return int(m.Lo + segment.ID(m.Size) - id), true
}

// WordsFrom re-bases the map at origin lo: on return, bit i of dst reports
// Has(lo+i) for every i in [0, 64·len(dst)) — the shifted-word read that
// lets a peer run word algebra over a neighbour's map whose window opened
// at a different ID than its own (maps on a live network are stale by up
// to a period, so their origins trail the reader's). IDs outside the map's
// window read as absent, exactly as Has reports them, and stray bits past
// Size in the last word (a decoded map's padding is untrusted) are masked.
//
// When lo is a whole number of words from the map's origin — in-process,
// where every map is announced at the shared playback position, that is
// every read — the words are copied as they stand; any other origin (a
// stale or misaligned map, the socket case) reads each word from two.
func (m Map) WordsFrom(dst []uint64, lo segment.ID) {
	span := segment.Window{Lo: lo, Hi: lo + segment.ID(64*len(dst))}
	if iv := span.Intersect(segment.Window{Lo: m.Lo, Hi: m.Lo + segment.ID(m.Size)}); iv.Lo >= iv.Hi {
		clear(dst)
		return
	}
	// The windows overlap, so the origins are less than a window apart.
	shift := int(lo - m.Lo)
	if shift&63 == 0 {
		// dst[a:b] is the overlap: map words q+a .. q+b-1.
		q, n := shift>>6, (m.Size+63)>>6
		a, b := max(0, -q), min(len(dst), n-q)
		clear(dst[:a])
		copy(dst[a:b], m.Bits[q+a:q+b])
		clear(dst[b:])
		if q+b == n {
			dst[b-1] = m.word(n - 1)
		}
		return
	}
	for wi := range dst {
		dst[wi] = m.bitsAt(shift + wi*64)
	}
}

// bitsAt returns the 64 availability bits starting at window index start,
// which may be negative or run past Size; out-of-window bits are zero.
func (m Map) bitsAt(start int) uint64 {
	if start <= -64 || start >= m.Size {
		return 0
	}
	q, r := start>>6, uint(start)&63 // floor division: q is -1 for a negative start
	var v uint64
	if q >= 0 {
		v = m.word(q) >> r
	}
	if r != 0 && q+1 < len(m.Bits) {
		v |= m.word(q+1) << (64 - r)
	}
	return v
}

// word returns Bits[i] with any bits at or past Size cleared.
func (m Map) word(i int) uint64 {
	w := m.Bits[i]
	if r := uint(m.Size) & 63; r != 0 && i == (m.Size-1)>>6 {
		w &= 1<<r - 1
	}
	return w
}

// AppendMarshal appends the map in the compact wire format to dst, so an
// encoder writes it into the frame it is building: a 4-byte window size,
// an 8-byte head ID (of which only HeadIDBits are semantically meaningful
// on a real wire; we keep whole bytes for simplicity and cost accounting
// uses WireBits, not len(bytes)), then the bitmap.
func (m Map) AppendMarshal(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Size))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Lo))
	for _, w := range m.Bits {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// MarshalLen is the length of the bytes AppendMarshal appends.
func (m Map) MarshalLen() int { return 4 + 8 + 8*len(m.Bits) }

// UnmarshalMap decodes a map previously produced by AppendMarshal.
func UnmarshalMap(data []byte) (Map, error) {
	if len(data) < 12 {
		return Map{}, fmt.Errorf("buffer: map too short: %d bytes", len(data))
	}
	size := int(binary.LittleEndian.Uint32(data[0:4]))
	if size < 0 || size > 1<<24 {
		return Map{}, fmt.Errorf("buffer: implausible map size %d", size)
	}
	words := (size + 63) / 64
	if len(data) != 12+8*words {
		return Map{}, fmt.Errorf("buffer: map length %d does not match size %d", len(data), size)
	}
	m := Map{
		Lo:   segment.ID(binary.LittleEndian.Uint64(data[4:12])),
		Size: size,
		Bits: make([]uint64, words),
	}
	for i := range m.Bits {
		m.Bits[i] = binary.LittleEndian.Uint64(data[12+8*i:])
	}
	return m, nil
}
