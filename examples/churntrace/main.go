// Churntrace: trace-driven membership dynamics. The paper evaluates a
// uniform 5%-per-round churn; real audiences follow session-length
// distributions — memoryless zappers, a heavy-tailed loyal core, and
// day-night swings punctuated by correlated flash departures. This
// scenario runs ContinuStreaming through all three trace models plus the
// uniform baseline and prints the stable continuity each sustains.
//
//	go run ./examples/churntrace
package main

import (
	"fmt"
	"log"

	"continustreaming"
)

func main() {
	const nodes, rounds = 400, 40
	traces := []struct {
		name  string
		trace *continustreaming.ChurnTrace
	}{
		{"uniform 5%/round", nil},
		{"exponential (mean 20 rounds)", continustreaming.ExponentialChurn(rounds, 20)},
		{"pareto (alpha 2, min 6)", continustreaming.ParetoChurn(rounds, 2, 6)},
		{"diurnal + flash at t=20", continustreaming.DiurnalChurn(rounds, 24, 0.01, 0.08, 20, 0.3)},
	}
	fmt.Printf("ContinuStreaming, %d nodes, %d rounds:\n\n", nodes, rounds)
	for _, tc := range traces {
		cfg := continustreaming.ScenarioHetDynamic(nodes)
		cfg.Churn.Trace = tc.trace
		cfg.Seed = 7
		res, err := continustreaming.Run(cfg, rounds)
		if err != nil {
			log.Fatal(err)
		}
		min := 1.0
		for _, v := range res.Continuity.Values {
			if v > 0 && v < min {
				min = v
			}
		}
		fmt.Printf("%-30s stable=%.3f worst-round=%.3f\n", tc.name, res.StableContinuity, min)
	}
	fmt.Println("\nThe flash departure is the stress case: a third of the audience")
	fmt.Println("leaves in one scheduling period and the repair pipeline regrows")
	fmt.Println("the mesh while the DHT keeps the stragglers fed.")
}
