package main

import (
	"math"
	"sort"
)

// percentile returns the q-th quantile (0..1) of values by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return percentile(values, 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// figure the acceptance rule for this benchmark is phrased in. It needs at
// least two values; ok is false otherwise or when the median is 0.
func quartileSpread(values []float64) (spread float64, ok bool) {
	n := len(values)
	if n < 2 {
		return 0, false
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0, false
	}
	return math.Abs((quart(3) - quart(1)) / med), true
}

// span is one traced interval. Parent is the index of the enclosing span
// in the same trace (-1 for a root); ID groups the spans of one unit of
// work (a round, a sweep, a session).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	ID      int    `json:"id"`
}

// selfTimes returns each span's duration minus the part of its interval
// its direct children cover (children are clipped to the parent and
// assumed not to overlap each other, which holds for sequential phases).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs
	}
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}
