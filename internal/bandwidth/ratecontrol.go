package bandwidth

import (
	"fmt"
	"math"
)

// Controller is the node's Rate Controller (Figure 1): it "monitors and
// estimates the receiving rate from each connected neighbor". It keeps two
// estimates per neighbour, because two different consumers need different
// signals:
//
//   - Rate (R_ij, segments/s) is the *service rate* observed during active
//     transfers — segments delivered divided by the elapsed transfer window
//     — which feeds the urgency term 1/R_i and Algorithm 1's expected
//     transfer times. Estimating from timestamps rather than per-period
//     counts matters: a neighbour asked for 2 segments that arrive within
//     300 ms is a fast supplier, not a 2-segments-per-second one.
//   - Supply (segments/period, long-run EWMA) measures how much the
//     neighbour actually contributes, which drives the §4.1 replacement of
//     neighbours that "supplied little data".
//
// Rounds in which nothing was requested from a neighbour leave its service
// estimate drifting gently back toward the optimistic prior, so a
// temporarily overloaded supplier is retried rather than written off
// forever.
//
// State lives in one id-sorted slice — a node tracks a handful of
// neighbours, so the binary-searched lookups that the hot scheduling path
// issues per neighbour cost a few compares instead of a map hash, and Tick
// is one linear pass with no per-key map traffic. Every per-neighbour
// update is independent of the others, so folding the retired per-map
// loops into that single pass leaves each estimate's float operation
// sequence — and therefore every result — bit-identical.
type Controller struct {
	alpha float64 // EWMA weight on the newest observation
	prior float64 // service-rate prior for unknown neighbours (segments/s)

	stats []neighbourStats // sorted by id
}

// neighbourStats folds one neighbour's running estimates and per-period
// scratch. hasService/hasSupply mirror the retired maps' key presence:
// service is meaningful (and the neighbour "known") only after a period
// that requested from it, supply only after a delivery credited it. The
// id is an int32 packed behind the float64 estimates, so a row is 40
// bytes; entry panics on an ID past the bound.
type neighbourStats struct {
	service    float64
	supply     float64
	lastAt     float64 // latest arrival offset in seconds, this period
	id         int32
	requested  int32
	delivered  int32
	hasService bool
	hasSupply  bool
}

// minObservationWindow guards the service-rate division: arrivals inside
// the first 100 ms of a period measure at most rate = count/0.1.
const minObservationWindow = 0.1

// serviceFloor keeps estimates strictly positive so expected transfer
// times stay finite.
const serviceFloor = 0.05

// NewController returns a controller with the given EWMA weight and
// service-rate prior (segments per second). alpha is clamped into (0, 1].
func NewController(alpha, prior float64) *Controller {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	if prior <= 0 {
		prior = 1
	}
	return &Controller{alpha: alpha, prior: prior}
}

// find returns the index of id in stats, or the insertion point if absent.
func (c *Controller) find(id int) int {
	lo, hi := 0, len(c.stats)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(c.stats[mid].id) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// entry returns the stats for id, inserting a zero entry if absent. The
// pointer is valid until the next insertion or removal. An id past the
// int32 bound of a row panics.
func (c *Controller) entry(id int) *neighbourStats {
	i := c.find(id)
	if c.has(i, id) {
		return &c.stats[i]
	}
	if id < math.MinInt32 || id > math.MaxInt32 {
		panic(fmt.Sprintf("bandwidth: neighbour ID %d is past the int32 bound %d of a rate-controller row", id, math.MaxInt32))
	}
	c.stats = append(c.stats, neighbourStats{})
	copy(c.stats[i+1:], c.stats[i:])
	c.stats[i] = neighbourStats{id: int32(id)}
	return &c.stats[i]
}

// has reports whether stats[i] is id's row.
func (c *Controller) has(i, id int) bool {
	return i < len(c.stats) && int(c.stats[i].id) == id
}

// NoteRequested records that `count` segments were requested from
// neighbour id this period.
func (c *Controller) NoteRequested(id, count int) {
	if count > 0 {
		c.entry(id).requested += int32(count)
	}
}

// ObserveDelivery records one segment arriving from neighbour id at offset
// seconds into the period.
func (c *Controller) ObserveDelivery(id int, offsetSeconds float64) {
	e := c.entry(id)
	e.delivered++
	if offsetSeconds > e.lastAt {
		e.lastAt = offsetSeconds
	}
}

// Tick folds the period's observations into the running estimates.
func (c *Controller) Tick() {
	for i := range c.stats {
		e := &c.stats[i]
		if e.requested > 0 {
			// Service rate: only neighbours we exercised this period carry
			// signal. Requested but nothing came: the supplier failed us.
			cur := e.service
			if !e.hasService {
				cur = c.prior
			}
			var obs float64
			if e.delivered > 0 {
				window := e.lastAt
				if window < minObservationWindow {
					window = minObservationWindow
				}
				obs = float64(e.delivered) / window
			}
			next := (1-c.alpha)*cur + c.alpha*obs
			if next < serviceFloor {
				next = serviceFloor
			}
			e.service = next
			e.hasService = true
		} else if e.hasService && e.delivered == 0 {
			// Idle neighbours drift back toward the prior so they get
			// retried.
			e.service += 0.1 * (c.prior - e.service)
		}
		// Long-run supply decays for everyone and credits actual
		// deliveries (a supply estimate born this period starts at the
		// credit, undecayed, exactly as the retired map's two loops left
		// it).
		if e.hasSupply {
			e.supply = (1 - c.alpha) * e.supply
		}
		if e.delivered > 0 {
			e.supply += c.alpha * float64(e.delivered)
			e.hasSupply = true
		}
		e.requested, e.delivered, e.lastAt = 0, 0, 0
	}
}

// Rate returns the estimated service rate from neighbour id in segments
// per second; unknown neighbours get the optimistic prior.
func (c *Controller) Rate(id int) float64 {
	i := c.find(id)
	if c.has(i, id) && c.stats[i].hasService {
		return c.stats[i].service
	}
	return c.prior
}

// Supply returns the long-run per-period supply estimate for id (0 for
// unknown neighbours).
func (c *Controller) Supply(id int) float64 {
	i := c.find(id)
	if c.has(i, id) {
		return c.stats[i].supply
	}
	return 0
}

// Known reports whether the controller has ever exercised neighbour id.
func (c *Controller) Known(id int) bool {
	i := c.find(id)
	return c.has(i, id) && c.stats[i].hasService
}

// Forget removes all state about a departed neighbour.
func (c *Controller) Forget(id int) {
	i := c.find(id)
	if c.has(i, id) {
		c.stats = append(c.stats[:i], c.stats[i+1:]...)
	}
}
