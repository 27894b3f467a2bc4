// Quickstart: run ContinuStreaming and the CoolStreaming baseline on the
// same 300-node overlay and compare the paper's three metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"continustreaming"
)

func main() {
	const nodes, rounds = 300, 25
	for _, system := range []continustreaming.Profile{
		continustreaming.CoolStreaming(),
		continustreaming.ContinuStreaming(),
	} {
		cfg := continustreaming.DefaultConfig(nodes)
		cfg.Profile = system
		cfg.Seed = 42
		res, err := continustreaming.Run(cfg, rounds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s continuity=%.3f control-overhead=%.4f prefetch-overhead=%.4f\n",
			system.Name, res.StableContinuity, res.StableControl, res.StablePrefetch)
	}
	pcOld, pcNew, err := continustreaming.TheoreticalContinuity(15, 10, 1, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("theory (λ=15):     PC_old=%.4f PC_new=%.4f (paper: 0.8815 / 0.9989)\n", pcOld, pcNew)
}
