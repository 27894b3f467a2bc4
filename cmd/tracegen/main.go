// Command tracegen emits churn traces: per-round leave/join schedules
// derived from session-length distributions, in the plain-text format
// continusim -churntrace and the public API's ReadChurnTrace consume.
//
//	tracegen -churn pareto -rounds 40 -alpha 1.5 -minsession 2 > churn.txt
//	tracegen -churn diurnal -rounds 40 -flashround 20 -flashfrac 0.3 > flash.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"continustreaming/internal/churn"
)

func main() {
	var (
		churnModel = flag.String("churn", "", "session-length model: exponential|pareto|diurnal")
		rounds     = flag.Int("rounds", 40, "churn trace length in scheduling periods")
		mean       = flag.Float64("mean", 20, "exponential: mean session length in rounds")
		alpha      = flag.Float64("alpha", 1.5, "pareto: shape (>1)")
		minSession = flag.Float64("minsession", 2, "pareto: minimum session length in rounds")
		period     = flag.Int("period", 24, "diurnal: cycle length in rounds")
		base       = flag.Float64("base", 0.01, "diurnal: off-peak leave fraction")
		peak       = flag.Float64("peak", 0.08, "diurnal: peak leave fraction")
		flashRound = flag.Int("flashround", -1, "diurnal: round of the flash departure (-1 = none)")
		flashFrac  = flag.Float64("flashfrac", 0.3, "diurnal: fraction departing at the flash round")
	)
	flag.Parse()

	// The model constructors panic on non-physical parameters (their
	// callers are programs); a CLI user gets a clean one-line error.
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
		os.Exit(1)
	}
	if *rounds <= 0 {
		fail("-rounds must be positive, got %d", *rounds)
	}
	var m *churn.TraceModel
	switch *churnModel {
	case "exponential":
		if *mean <= 0 {
			fail("-mean must be positive, got %v", *mean)
		}
		m = churn.ExponentialTrace(*rounds, *mean)
	case "pareto":
		if *alpha <= 1 {
			fail("-alpha must exceed 1 for a finite mean session, got %v", *alpha)
		}
		if *minSession <= 0 {
			fail("-minsession must be positive, got %v", *minSession)
		}
		m = churn.ParetoTrace(*rounds, *alpha, *minSession)
	case "diurnal":
		if *period <= 0 {
			fail("-period must be positive, got %d", *period)
		}
		if *base < 0 || *peak < *base || *peak >= 1 {
			fail("need 0 <= -base <= -peak < 1, got base %v peak %v", *base, *peak)
		}
		if *flashFrac < 0 || *flashFrac >= 1 {
			fail("-flashfrac must be in [0,1), got %v", *flashFrac)
		}
		m = churn.DiurnalTrace(*rounds, *period, *base, *peak, *flashRound, *flashFrac)
	default:
		fail("-churn %q: want exponential, pareto or diurnal", *churnModel)
	}
	if err := churn.WriteTrace(os.Stdout, m); err != nil {
		fail("%v", err)
	}
}
