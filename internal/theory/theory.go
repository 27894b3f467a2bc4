// Package theory implements the analytical models of §5.1 and the related
// formulas the paper cites: the Poisson playback-continuity analysis
// (equations 10-15), the gossip coverage results from Kermarrec et al. and
// CoolStreaming, and the appendix's DHT routing-hop upper bound. The
// experiment harness compares these closed forms against simulation.
package theory

import (
	"fmt"
	"math"
)

// PoissonPMF returns P{N = n} for a Poisson distribution with mean lambda,
// computed in log space for numerical stability at large lambda·t.
func PoissonPMF(lambda float64, n int) float64 {
	if lambda < 0 || n < 0 {
		return 0
	}
	if lambda == 0 {
		if n == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(n + 1))
	return math.Exp(float64(n)*math.Log(lambda) - lambda - lg)
}

// PoissonCDF returns P{N <= n}.
func PoissonCDF(lambda float64, n int) float64 {
	if n < 0 {
		return 0
	}
	sum := 0.0
	for k := 0; k <= n; k++ {
		sum += PoissonPMF(lambda, k)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// ContinuityModel evaluates the paper's §5.1 analysis. Data-segment
// arrivals at a node are modelled as a Poisson process with rate λ (the
// node's inbound rate); during one scheduling period τ the node must
// collect p·τ segments to play continuously.
type ContinuityModel struct {
	// Lambda is the arrival rate λ in segments per second (≈ inbound I).
	Lambda float64
	// PlaybackRate is p in segments per second.
	PlaybackRate int
	// TauSeconds is the scheduling period length τ in seconds.
	TauSeconds float64
	// Replicas is k, the number of DHT backup copies per segment.
	Replicas int
}

// need returns p·τ, the segments required per period.
func (m ContinuityModel) need() int {
	return int(math.Round(float64(m.PlaybackRate) * m.TauSeconds))
}

// TriggerProbability returns equation (11): the probability that on-demand
// retrieval is triggered in a period, P{N(τ) <= p·τ}.
func (m ContinuityModel) TriggerProbability() float64 {
	return PoissonCDF(m.Lambda*m.TauSeconds, m.need())
}

// ExpectedMissed returns equation (12): E[max(pτ − N(τ), 0)], the expected
// number of segments the gossip path leaves missing in a period.
func (m ContinuityModel) ExpectedMissed() float64 {
	lt := m.Lambda * m.TauSeconds
	pt := m.need()
	sum := 0.0
	for n := 0; n < pt; n++ {
		sum += float64(pt-n) * PoissonPMF(lt, n)
	}
	return sum
}

// PrefetchFailureProbability returns (1/2)^k — the paper's estimate that a
// single backup node has missed the segment with probability 1/2, so all k
// fail together with (1/2)^k.
func (m ContinuityModel) PrefetchFailureProbability() float64 {
	return math.Pow(0.5, float64(m.Replicas))
}

// PCOld returns equation (13): playback continuity without on-demand
// retrieval, 1 − P{N(τ) <= pτ}.
func (m ContinuityModel) PCOld() float64 {
	return 1 - m.TriggerProbability()
}

// PCNew returns equation (14): continuity with on-demand retrieval. A
// triggered period still fails only when at least one of the N_miss
// pre-fetches fails, i.e. with probability 1 − (1−(1/2)^k)^N_miss.
func (m ContinuityModel) PCNew() float64 {
	succ := math.Pow(1-m.PrefetchFailureProbability(), m.ExpectedMissed())
	return 1 - m.TriggerProbability()*(1-succ)
}

// Delta returns equation (15): PCNew − PCOld.
func (m ContinuityModel) Delta() float64 {
	return m.PCNew() - m.PCOld()
}

// Validate reports an error for non-physical models.
func (m ContinuityModel) Validate() error {
	if m.Lambda <= 0 || m.PlaybackRate <= 0 || m.TauSeconds <= 0 || m.Replicas < 0 {
		return fmt.Errorf("theory: invalid continuity model %+v", m)
	}
	return nil
}

// RoutingHopBound returns the appendix's upper bound on greedy DHT routing:
// log N / log(4/3) ≈ 2.41 · log₂ N hops for ring size n.
func RoutingHopBound(n int) float64 {
	if n < 2 {
		return 0
	}
	return math.Log2(float64(n)) / math.Log2(4.0/3.0)
}

// ExpectedRoutingHops returns the empirical average the paper reports for
// its loose DHT: close to log₂(n)/2 for n joined nodes.
func ExpectedRoutingHops(n int) float64 {
	if n < 2 {
		return 0
	}
	return math.Log2(float64(n)) / 2
}

// ControlOverheadEstimate returns §5.4.2's closed-form estimate of control
// overhead: each round a node pulls M buffer maps of (headerBits +
// bufferSize) bits while receiving p segments of segmentBits each, giving
// M·mapBits / (p·segmentBits). With the paper's numbers this is M/495.
func ControlOverheadEstimate(m, bufferSize, headerBits, playbackRate int, segmentBits int64) float64 {
	mapBits := float64(headerBits + bufferSize)
	return float64(m) * mapBits / (float64(playbackRate) * float64(segmentBits))
}
