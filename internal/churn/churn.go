// Package churn models overlay membership dynamics the way the paper's
// "dynamic network environment" does (§5.2): every scheduling period a
// fixed fraction of existing nodes leaves and an equal fraction of fresh
// nodes joins. Leaves split between graceful departures (which hand their
// VoD backup to the counter-clockwise neighbour, §4.3) and abrupt failures
// (which do not — the paper argues the successor's takeover of new segments
// limits the damage).
package churn

import (
	"fmt"

	"continustreaming/internal/sim"
)

// Config parameterises the churn process.
type Config struct {
	// LeaveFraction and JoinFraction are per-round fractions of the current
	// population; the paper uses 0.05 for both.
	LeaveFraction float64
	JoinFraction  float64
	// GracefulFraction is the share of leavers that depart cleanly with a
	// backup handover; the remainder fail abruptly. The paper does not
	// split the 5%, so the default model uses an even mix.
	GracefulFraction float64
	// Trace, when set, overrides the fixed fractions with a per-round
	// schedule (session-length-distribution models or a file loaded from
	// cmd/tracegen output). Round r of the process reads the trace at r —
	// the paper applies churn from the beginning; the graceful/abrupt
	// split still comes from GracefulFraction.
	Trace *TraceModel
}

// DefaultConfig returns the paper's dynamic-environment parameters.
func DefaultConfig() Config {
	return Config{LeaveFraction: 0.05, JoinFraction: 0.05, GracefulFraction: 0.5}
}

// Validate reports descriptive errors for non-physical configurations.
func (c Config) Validate() error {
	if c.LeaveFraction < 0 || c.LeaveFraction >= 1 {
		return fmt.Errorf("churn: leave fraction %v outside [0,1)", c.LeaveFraction)
	}
	if c.JoinFraction < 0 || c.JoinFraction >= 1 {
		return fmt.Errorf("churn: join fraction %v outside [0,1)", c.JoinFraction)
	}
	if c.GracefulFraction < 0 || c.GracefulFraction > 1 {
		return fmt.Errorf("churn: graceful fraction %v outside [0,1]", c.GracefulFraction)
	}
	if c.Trace != nil {
		if err := c.Trace.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Enabled reports whether the configuration produces any churn at all.
func (c Config) Enabled() bool {
	if c.Trace != nil {
		for r := range c.Trace.Leave {
			if c.Trace.Leave[r] > 0 || c.Trace.Join[r] > 0 {
				return true
			}
		}
		return false
	}
	return c.LeaveFraction > 0 || c.JoinFraction > 0
}

// rates resolves the effective leave/join fractions for process round r.
func (c Config) rates(r int) (leave, join float64) {
	if c.Trace != nil {
		return c.Trace.Rates(r)
	}
	return c.LeaveFraction, c.JoinFraction
}

// Plan is one round's membership changes, expressed as indices into the
// caller-provided candidate list so the package stays independent of node
// types.
type Plan struct {
	// GracefulLeavers and AbruptLeavers index the candidates chosen to
	// depart this round, partitioned by departure style.
	GracefulLeavers []int
	AbruptLeavers   []int
	// Joins is the number of new nodes to admit.
	Joins int
}

// TotalLeavers returns how many nodes depart under the plan.
func (p Plan) TotalLeavers() int { return len(p.GracefulLeavers) + len(p.AbruptLeavers) }

// Process drives per-round churn decisions deterministically from its own
// RNG stream.
type Process struct {
	cfg Config
	rng *sim.RNG
	// carryLeave/carryJoin accumulate the fractional parts so that a 5%
	// rate on a 70-node overlay still churns ~3.5 nodes per round on
	// average instead of rounding to the same integer forever.
	carryLeave float64
	carryJoin  float64
}

// NewProcess returns a churn process; cfg must validate.
func NewProcess(cfg Config, rng *sim.RNG) *Process {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Process{cfg: cfg, rng: rng}
}

// Next produces the plan for `round` over a population of `candidates`
// eligible leavers (the caller excludes the source). Candidate indices are
// sampled without replacement.
func (p *Process) Next(round, candidates int) Plan {
	if candidates <= 0 || !p.cfg.Enabled() {
		return Plan{}
	}
	leaveF, joinF := p.cfg.rates(round)
	leave := p.take(&p.carryLeave, leaveF, candidates)
	join := p.take(&p.carryJoin, joinF, candidates)
	if leave > candidates {
		leave = candidates
	}
	plan := Plan{Joins: join}
	chosen := p.sampleWithoutReplacement(candidates, leave)
	for _, idx := range chosen {
		if p.rng.Bool(p.cfg.GracefulFraction) {
			plan.GracefulLeavers = append(plan.GracefulLeavers, idx)
		} else {
			plan.AbruptLeavers = append(plan.AbruptLeavers, idx)
		}
	}
	return plan
}

// take converts a fractional per-round quota into an integer count,
// accumulating the remainder in carry.
func (p *Process) take(carry *float64, fraction float64, population int) int {
	*carry += fraction * float64(population)
	n := int(*carry)
	*carry -= float64(n)
	return n
}

// sampleWithoutReplacement picks k distinct indices from [0, n) via a
// partial Fisher-Yates shuffle.
func (p *Process) sampleWithoutReplacement(n, k int) []int {
	if k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + p.rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
