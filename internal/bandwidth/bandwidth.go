// Package bandwidth models node network capacity the way the paper's
// simulation does (§5.2): each node has an inbound rate I and an outbound
// rate O measured in segments per second (a 30 Kb segment at 300 Kbps
// stream rate means I = 10 is exactly playback speed). Rates are drawn
// uniformly so the population mean matches the paper's 450 Kbps ≈ 15
// segments/s, the source gets I = 0 and a large O, and every scheduling
// period each node spends from integer segment budgets.
//
// The package also provides the Rate Controller of Figure 1: a per-
// neighbour receive-rate estimator based on observed deliveries, which the
// data scheduler uses as R_ij, and from which suppliers' expected transfer
// times 1/R are computed.
package bandwidth

import (
	"fmt"

	"continustreaming/internal/sim"
)

// Rates describes one node's access capacity in segments per second.
type Rates struct {
	In  int // inbound segments/s (I in the paper)
	Out int // outbound segments/s
}

// Profile configures how rates are assigned across a population.
type Profile struct {
	// Homogeneous forces every node to exactly MeanIn/MeanOut.
	Homogeneous bool
	// MinIn/MaxIn bound the uniform inbound draw; the paper uses 10..33
	// ("from 300 Kbps to 1 Mbps") with mean 15 (450 Kbps).
	MinIn, MaxIn int
	// MeanIn is used when Homogeneous (and for the paper's λ).
	MeanIn int
	// MinOut/MaxOut/MeanOut mirror the inbound fields; §5.2: "The
	// arrangement of outbound rate is alike."
	MinOut, MaxOut int
	MeanOut        int
	// SourceOut is the source's outbound rate; §5.2 uses 100.
	SourceOut int
}

// DefaultProfile returns the paper's heterogeneous arrangement.
func DefaultProfile() Profile {
	return Profile{
		MinIn: 10, MaxIn: 33, MeanIn: 15,
		MinOut: 10, MaxOut: 33, MeanOut: 15,
		SourceOut: 100,
	}
}

// Validate reports an error for non-physical profiles.
func (p Profile) Validate() error {
	if p.MeanIn <= 0 || p.MeanOut <= 0 || p.SourceOut <= 0 {
		return fmt.Errorf("bandwidth: means and source rate must be positive: %+v", p)
	}
	if !p.Homogeneous {
		if p.MinIn <= 0 || p.MaxIn < p.MinIn || p.MinOut <= 0 || p.MaxOut < p.MinOut {
			return fmt.Errorf("bandwidth: invalid uniform bounds: %+v", p)
		}
	}
	return nil
}

// Draw assigns rates to an ordinary node. Heterogeneous draws skew toward
// the low end (two-point mixture of the uniform's halves) so that the mean
// lands near MeanIn even though the paper's range 10..33 has midpoint 21.5;
// most residential nodes sat near the bottom of the range in 2001-era
// traces, which is also what makes I average 15.
func (p Profile) Draw(rng *sim.RNG) Rates {
	if p.Homogeneous {
		return Rates{In: p.MeanIn, Out: p.MeanOut}
	}
	return Rates{
		In:  drawSkewed(rng, p.MinIn, p.MaxIn, p.MeanIn),
		Out: drawSkewed(rng, p.MinOut, p.MaxOut, p.MeanOut),
	}
}

// Source returns the media source's rates: zero inbound, large outbound.
func (p Profile) Source() Rates {
	return Rates{In: 0, Out: p.SourceOut}
}

// drawSkewed samples an integer in [min, max] whose expectation is mean by
// mixing a uniform draw over the full range with a uniform draw over the
// lower sub-range [min, mean]. Solving E = w·(min+mean)/2 + (1-w)·(min+max)/2
// for the mixture weight w gives the exact expectation when feasible.
func drawSkewed(rng *sim.RNG, min, max, mean int) int {
	if mean <= min {
		return min
	}
	if mean >= max {
		return rng.IntRange(min, max)
	}
	full := float64(min+max) / 2
	low := float64(min+mean) / 2
	w := 0.0
	if full != low {
		w = (full - float64(mean)) / (full - low)
	}
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	if rng.Bool(w) {
		return rng.IntRange(min, mean)
	}
	return rng.IntRange(min, max)
}

// PerSegment returns the wire time of one segment for a sender
// transmitting rate segments per period tau, floored at the simulation's
// 1 ms resolution. A non-positive rate yields the whole period — the
// "about to be unobtainable" limit the scheduler's urgency term also
// assumes. The serve and pre-fetch paths both derive transfer
// completions from it, so queueing-delay math stays consistent across
// the two retrieval channels.
func PerSegment(rate int, tau sim.Time) sim.Time {
	if rate <= 0 {
		return tau
	}
	t := tau / sim.Time(rate)
	if t < 1 {
		t = 1
	}
	return t
}
