// Package metrics implements the paper's three evaluation metrics (§5.3)
// and the collectors the experiment harness samples every round:
//
//  1. Playback continuity — the per-round ratio of nodes that hold all the
//     segments they must play that round (the paper argues this node-level
//     definition is stricter and more accurate than the per-segment
//     "continuity index").
//  2. Control overhead — buffer-map exchange bits divided by delivered
//     stream bits.
//  3. Pre-fetch overhead — DHT routing-message bits plus pre-fetched
//     segment bits, divided by delivered stream bits.
package metrics

import (
	"fmt"
	"math"
)

// RoundSample aggregates one scheduling period's raw counters across the
// whole overlay. The world fills one of these per round; the collectors
// derive the paper's ratios from it.
type RoundSample struct {
	Round int
	// PlayingNodes is the number of nodes with an active playback position;
	// ContinuousNodes of them held every segment due this round.
	PlayingNodes    int
	ContinuousNodes int
	// ControlBits counts buffer-map exchange traffic; DataBits counts
	// gossip-delivered stream payload; PrefetchRoutingBits counts DHT
	// routing messages; PrefetchDataBits counts pre-fetched payloads.
	ControlBits         int64
	DataBits            int64
	PrefetchRoutingBits int64
	PrefetchDataBits    int64
	// Deliveries and Prefetches count segments received by each path;
	// Overdue and Repeated feed the α controller aggregate view.
	Deliveries int64
	Prefetches int64
	Overdue    int64
	Repeated   int64
	// Requests counts scheduled gossip asks; Dropped counts the ones
	// suppliers could not serve even with backlog spill.
	Requests int64
	Dropped  int64
	// LookupAttempts counts Urgent-Line segments handed to Algorithm 2;
	// LookupFound counts those for which a usable backup holder emerged.
	LookupAttempts int64
	LookupFound    int64
	// Failed lookups, classified: no replica owner was reachable by
	// routing, owners were reached but none held the segment, or a holder
	// existed but had no spare outbound capacity left this round.
	LookupNoRoute  int64
	LookupNoBackup int64
	LookupNoRate   int64
	// SourceRescues counts failed lookups that fell back to a direct
	// fetch from the media source's spare outbound.
	SourceRescues int64
	// PushDeliveries counts fresh segments stored via the eager push
	// phase; PushDuplicates counts pushed copies that arrived at a node
	// already holding the segment (two same-hop pushers racing to one
	// target, or a pull transfer winning the race).
	PushDeliveries int64
	PushDuplicates int64
	// QueueServed counts requests granted out of a supplier's carry
	// queue; QueueCarried counts requests carried into the next round.
	QueueServed  int64
	QueueCarried int64
	// Queue evictions, classified: the request could no longer meet its
	// deadline, the bounded queue was full of earlier-deadline work, or
	// the requester/segment vanished while queued. Diag probes use the
	// split to attribute residual playback misses.
	QueueEvictedDeadline int64
	QueueEvictedOverflow int64
	QueueEvictedStale    int64
	// WarmNodes is the continuity denominator excluding nodes still in
	// their first two rounds after joining (the joiner ramp-up drag);
	// ContinuousWarmNodes of them held every due segment.
	WarmNodes           int
	ContinuousWarmNodes int
}

// Continuity returns the round's playback continuity in [0,1]; rounds with
// no playing nodes report 0 (the system has not started).
func (s RoundSample) Continuity() float64 {
	if s.PlayingNodes == 0 {
		return 0
	}
	return float64(s.ContinuousNodes) / float64(s.PlayingNodes)
}

// ContinuityWarm returns the round's playback continuity over the warm
// population only: nodes past their first two rounds of catch-up after
// joining. It separates dissemination quality from joiner ramp-up drag —
// under churn a constant fraction of the population is always a fresh
// joiner with an empty buffer, and the plain Continuity denominator
// charges those startup rounds against the protocol.
func (s RoundSample) ContinuityWarm() float64 {
	if s.WarmNodes == 0 {
		return 0
	}
	return float64(s.ContinuousWarmNodes) / float64(s.WarmNodes)
}

// ControlOverhead returns control bits over data bits (0 when no data
// flowed yet).
func (s RoundSample) ControlOverhead() float64 {
	if s.DataBits == 0 {
		return 0
	}
	return float64(s.ControlBits) / float64(s.DataBits)
}

// PrefetchOverhead returns pre-fetch bits (routing + payload) over data
// bits transferred by the gossip path.
func (s RoundSample) PrefetchOverhead() float64 {
	if s.DataBits == 0 {
		return 0
	}
	return float64(s.PrefetchRoutingBits+s.PrefetchDataBits) / float64(s.DataBits)
}

// Add adds o's counters into s: every field but Round. It is the one
// place that lists the counters, so the world's per-shard partials and
// the collector's totals fold through it.
func (s *RoundSample) Add(o RoundSample) {
	s.PlayingNodes += o.PlayingNodes
	s.ContinuousNodes += o.ContinuousNodes
	s.ControlBits += o.ControlBits
	s.DataBits += o.DataBits
	s.PrefetchRoutingBits += o.PrefetchRoutingBits
	s.PrefetchDataBits += o.PrefetchDataBits
	s.Deliveries += o.Deliveries
	s.Prefetches += o.Prefetches
	s.Overdue += o.Overdue
	s.Repeated += o.Repeated
	s.Requests += o.Requests
	s.Dropped += o.Dropped
	s.LookupAttempts += o.LookupAttempts
	s.LookupFound += o.LookupFound
	s.LookupNoRoute += o.LookupNoRoute
	s.LookupNoBackup += o.LookupNoBackup
	s.LookupNoRate += o.LookupNoRate
	s.SourceRescues += o.SourceRescues
	s.PushDeliveries += o.PushDeliveries
	s.PushDuplicates += o.PushDuplicates
	s.QueueServed += o.QueueServed
	s.QueueCarried += o.QueueCarried
	s.QueueEvictedDeadline += o.QueueEvictedDeadline
	s.QueueEvictedOverflow += o.QueueEvictedOverflow
	s.QueueEvictedStale += o.QueueEvictedStale
	s.WarmNodes += o.WarmNodes
	s.ContinuousWarmNodes += o.ContinuousWarmNodes
}

// Series is an ordered per-round trace of one scalar metric.
type Series struct {
	Name   string
	Values []float64
}

// Append adds the next round's value.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Len returns the number of recorded rounds.
func (s Series) Len() int { return len(s.Values) }

// Mean returns the arithmetic mean over the whole series (0 when empty).
func (s Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// TailMean returns the mean over the final n values — the "stable phase"
// average the paper quotes. When n exceeds the length the whole series is
// used.
func (s Series) TailMean(n int) float64 {
	if len(s.Values) == 0 || n <= 0 {
		return 0
	}
	if n > len(s.Values) {
		n = len(s.Values)
	}
	sum := 0.0
	for _, v := range s.Values[len(s.Values)-n:] {
		sum += v
	}
	return sum / float64(n)
}

// StableRound returns the first round index from which the series stays
// within tol of its tail mean — the paper's "enters its stable phase in N
// seconds". Returns -1 when the series never settles.
func (s Series) StableRound(tailN int, tol float64) int {
	if len(s.Values) == 0 {
		return -1
	}
	target := s.TailMean(tailN)
	for i, v := range s.Values {
		if math.Abs(v-target) <= tol {
			stable := true
			for _, w := range s.Values[i:] {
				if math.Abs(w-target) > tol {
					stable = false
					break
				}
			}
			if stable {
				return i
			}
		}
	}
	return -1
}

// Collector accumulates RoundSamples and exposes the three metric series.
type Collector struct {
	samples []RoundSample
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record appends one round's sample.
func (c *Collector) Record(s RoundSample) { c.samples = append(c.samples, s) }

// Samples returns the raw per-round samples.
func (c *Collector) Samples() []RoundSample { return c.samples }

// Rounds reports how many rounds were recorded.
func (c *Collector) Rounds() int { return len(c.samples) }

// series traces one per-round scalar under name.
func (c *Collector) series(name string, f func(RoundSample) float64) Series {
	s := Series{Name: name}
	for _, smp := range c.samples {
		s.Append(f(smp))
	}
	return s
}

// ContinuitySeries returns the playback-continuity trace.
func (c *Collector) ContinuitySeries() Series {
	return c.series("playback-continuity", RoundSample.Continuity)
}

// ContinuityWarmSeries returns the warm-population continuity trace.
func (c *Collector) ContinuityWarmSeries() Series {
	return c.series("playback-continuity-warm", RoundSample.ContinuityWarm)
}

// ControlOverheadSeries returns the control-overhead trace.
func (c *Collector) ControlOverheadSeries() Series {
	return c.series("control-overhead", RoundSample.ControlOverhead)
}

// PrefetchOverheadSeries returns the pre-fetch-overhead trace.
func (c *Collector) PrefetchOverheadSeries() Series {
	return c.series("prefetch-overhead", RoundSample.PrefetchOverhead)
}

// Totals sums every counter across all rounds; its Round is 0.
func (c *Collector) Totals() RoundSample {
	var t RoundSample
	for _, s := range c.samples {
		t.Add(s)
	}
	return t
}

// String summarizes a series for logs.
func (s Series) String() string {
	return fmt.Sprintf("%s{n=%d mean=%.4f}", s.Name, s.Len(), s.Mean())
}
