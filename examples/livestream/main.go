// Livestream: runs the protocol over real message passing (the livenet
// runtime) instead of the deterministic simulator — peers exchanging
// protocol messages through an in-process queue, handled in send order,
// and a wall-clock ticker as the scheduling period, so a seed replays the
// same session. This is the in-process stand-in for the paper's planned
// PlanetLab deployment, and since the livenet port it drives the same
// internal/protocol decision core as the simulator: fresh-segment push,
// supplier-side EDF serving with carry queues, mesh repair and rescue of
// urgent holes (a ring-hashed peer asked for a buffered segment; there is
// no VoD backup — EXPERIMENTS.md, "Livenet ring").
//
// The session is a kill-and-recover demo: a third of the audience drops
// dead mid-stream (abrupt failures — no goodbyes), a batch of newcomers
// joins through the rendezvous path, and the repair pipeline rewires the
// mesh while rescues patch the urgent holes.
//
//	go run ./examples/livestream
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"continustreaming"
)

func main() {
	cfg := continustreaming.DefaultLiveConfig()
	cfg.Peers = 32
	cfg.Period = 25 * time.Millisecond
	cfg.Seed = 99
	cfg.Churn = []continustreaming.LiveChurnEvent{
		{Period: 30, KillFraction: 0.33}, // a third of the audience dies
		{Period: 38, Join: 6},            // newcomers arrive mid-stream
	}

	fmt.Printf("streaming live: %d peers, M=%d, %v periods, kill 33%% at period 30...\n",
		cfg.Peers, cfg.M, cfg.Period)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stats, err := continustreaming.RunLive(ctx, cfg, continustreaming.LiveNode{}, 80)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("periods run:        %d\n", stats.Periods)
	fmt.Printf("segments delivered: %d (push %d, rescue %d, queue-served %d)\n",
		stats.Delivered, stats.PushDelivered, stats.Rescued, stats.QueueServed)
	fmt.Printf("churn:              killed %d, joined %d\n", stats.Killed, stats.Joined)
	fmt.Printf("mesh repair:        %d dead links dropped, %d low-supply swaps, %d dead links left\n",
		stats.DeadDropped, stats.Replaced, stats.EndDeadLinks)
	fmt.Printf("play continuity:    %.3f overall, %.3f in the recovered tail\n",
		stats.Continuity, stats.TailContinuity(15))
}
