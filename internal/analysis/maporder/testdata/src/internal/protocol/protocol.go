// Package protocol is a simulated-path fixture for the maporder
// analyzer: the package filter looks for an internal/ path segment, so
// this directory stands in for continustreaming/internal/protocol.
package protocol

import "sort"

// Leaks holds the loops whose order dependence is plain to see.
func Leaks(m map[int]float64, sink map[int]int) []int {
	var keys []int
	for k := range m { // want `range over map m`
		keys = append(keys, k) // never sorted afterwards
	}
	var sum float64
	for _, v := range m { // want `range over map m`
		sum += v // float addition does not commute bitwise
	}
	i := 0
	for k := range m { // want `range over map m`
		sink[i] = k // keyed by a counter, not the loop key
		i++
	}
	_ = sum
	return keys
}

// Plausible holds the shapes that look order-free: collect-then-sort,
// integer accumulation, writes keyed by the loop key, a running max, a
// delete by key. Each may well be; the ban does not try to tell, so each
// is a finding until a directive states why.
func Plausible(m map[int]int, other map[int]bool) (int, []int) {
	var keys []int
	for k := range m { // want `range over map m`
		keys = append(keys, k)
	}
	sort.Ints(keys) // collect-then-sort

	n := 0
	best := -1
	out := make(map[int64]int, len(m))
	for k, v := range m { // want `range over map m`
		n += v            // commutative integer accumulation
		out[int64(k)] = v // keyed by the loop key
		if v > best {
			best = v // running max
		}
		delete(other, k) // delete by key
	}
	return n + best, keys
}

// TieBreak is why the ban does not recognise a running max: give it a
// companion key and, when two values tie, bestKey is whichever key the
// runtime happened to visit first.
func TieBreak(m map[int]int) int {
	best, bestKey := -1, -1
	for k, v := range m { // want `range over map m`
		if v > best {
			best = v
			bestKey = k
		}
	}
	return bestKey
}

// Narrow is why it does not recognise a write keyed by the loop key: the
// conversion is lossy, keys 1 and 257 collide in out, and the last one
// visited wins.
func Narrow(m map[int]int) map[int8]int {
	out := make(map[int8]int, len(m))
	for k, v := range m { // want `range over map m`
		out[int8(k)] = v
	}
	return out
}

// Generic ranges a type parameter that only map types satisfy.
func Generic[M ~map[int]int](m M) int {
	last := 0
	for _, v := range m { // want `range over map m`
		last = v
	}
	return last
}

// SortedKeys is the sanctioned way to visit a map: range a sorted slice
// of its keys and index the map. Neither loop ranges a map, so neither
// is a finding.
func SortedKeys(m map[int]int, keys []int) int {
	sort.Ints(keys)
	last := 0
	for _, k := range keys {
		last = m[k]
	}
	for i := range keys {
		last += m[keys[i]]
	}
	return last
}

// Suppressed carries a reasoned directive, which silences the finding.
func Suppressed(m map[int]int) int {
	last := 0
	//continulint:maporder fixture: reasoned directives suppress the finding
	for _, v := range m {
		last = v
	}
	return last
}

// MissingReason carries a directive with no justification, which is
// itself reported instead of suppressing.
func MissingReason(m map[int]int) int {
	last := 0
	//continulint:maporder
	for _, v := range m { // want `needs a reason`
		last = v
	}
	return last
}
