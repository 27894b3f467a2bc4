// Package other is not on the simulated path (no internal/ segment in
// its import path): maporder's package filter skips it, so the same
// order-sensitive loop draws no finding.
package other

// OrderLeak would be flagged in a simulated-path package.
func OrderLeak(m map[int]int) int {
	last := 0
	for _, v := range m {
		last = v
	}
	return last
}
