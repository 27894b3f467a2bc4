package dht

import "math/bits"

// Members is a set of ring IDs kept as a bitmap over the identifier space:
// adding, removing and testing an ID touch one word, and the nearest member
// either way round the ring is a scan of a few words. The network's
// membership and the RP server's lists are Members because churn edits
// them hundreds of times a round, which a sorted ID slice pays for with a
// memmove of half the population per edit. The zero Members is unusable;
// construct with NewMembers. Reads may run concurrently while nobody edits.
type Members struct {
	words []uint64
	count int
}

// NewMembers returns the empty set over space.
func NewMembers(space Space) Members {
	return Members{words: make([]uint64, (space.N()+63)/64)}
}

// Len returns the number of members.
func (m *Members) Len() int { return m.count }

// Has reports whether id, an ID of the space, is a member.
func (m *Members) Has(id ID) bool {
	return m.words[id>>6]&(1<<(uint(id)&63)) != 0
}

// Add inserts id, reporting whether it was absent.
func (m *Members) Add(id ID) bool {
	if m.Has(id) {
		return false
	}
	m.words[id>>6] |= 1 << (uint(id) & 63)
	m.count++
	return true
}

// Remove deletes id, reporting whether it was present.
func (m *Members) Remove(id ID) bool {
	if !m.Has(id) {
		return false
	}
	m.words[id>>6] &^= 1 << (uint(id) & 63)
	m.count--
	return true
}

// AtOrBelow returns the member counter-clockwise closest to key, key
// itself included: the largest member <= key, wrapping past zero to the
// top of the ring. The second result is false when the set is empty.
func (m *Members) AtOrBelow(key ID) (ID, bool) {
	if m.count == 0 {
		return 0, false
	}
	wi := int(key) >> 6
	word := m.words[wi] & (^uint64(0) >> (63 - uint(key)&63))
	for word == 0 {
		// Nothing at or below key in this word: step down, wrapping past
		// zero. The set is non-empty, so the walk ends at the latest back
		// in key's own word, whose bits above key are then the wrapped
		// answer.
		if wi--; wi < 0 {
			wi = len(m.words) - 1
		}
		word = m.words[wi]
	}
	return ID(wi<<6 + 63 - bits.LeadingZeros64(word)), true
}

// Above returns the member clockwise closest after id: the smallest member
// > id, wrapping past the top of the ring — round to id itself when it is
// the only member. The second result is false when the set is empty.
func (m *Members) Above(id ID) (ID, bool) {
	if m.count == 0 {
		return 0, false
	}
	wi := int(id) >> 6
	word := m.words[wi] & (^uint64(1) << (uint(id) & 63))
	for word == 0 {
		if wi++; wi == len(m.words) {
			wi = 0
		}
		word = m.words[wi]
	}
	return ID(wi<<6 + bits.TrailingZeros64(word)), true
}

// AppendTo appends the members in ascending order to dst.
func (m *Members) AppendTo(dst []ID) []ID {
	for wi, word := range m.words {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, ID(wi<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}
