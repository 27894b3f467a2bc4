// Command livenode runs ONE peer of a multi-process live session: the
// livenet protocol over a real UDP socket, one process per peer — the
// repro of the paper's PlanetLab deployment plan on real datagrams.
//
// The source (which doubles as the rendezvous point) and a receiver:
//
//	livenode -id 0 -source -listen 127.0.0.1:41000 -peers 8 -periods 60
//	livenode -id 1 -bootstrap 127.0.0.1:41000 -peers 8 -periods 60
//
// On startup the node prints "LISTEN=<addr>" on stdout (the driver's
// cue for wiring bootstrap addresses), streams progress to stderr, and
// on completion prints one JSON stats object on stdout. -exitat scripts
// an abrupt mid-session failure: the node drops off the network at that
// period with no goodbye, the kill half of churn scenarios.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"continustreaming/internal/livenet"
)

// bindProtocolFlags binds the protocol flags straight to cfg's fields, so
// -help shows the real defaults and a flag's value is the value used.
func bindProtocolFlags(fs *flag.FlagSet, cfg *livenet.Config) {
	fs.IntVar(&cfg.Peers, "peers", 8, "expected audience size (capacity scaling)")
	fs.DurationVar(&cfg.Period, "period", cfg.Period, "scheduling period (scaled-down tau)")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "policy randomness seed")
	fs.BoolVar(&cfg.Engine, "engine", cfg.Engine, "dissemination engine (push + EDF serve + carry queues)")
	fs.BoolVar(&cfg.Repair, "repair", cfg.Repair, "mesh repair, and rescue of urgent holes from a ring-hashed peer's buffer")
	fs.IntVar(&cfg.RetryPeriods, "retry", cfg.RetryPeriods, "pull/rescue retry window in periods")
	fs.IntVar(&cfg.PushHops, "pushhops", cfg.PushHops, "push depth (0 = pull-only)")
}

func main() {
	cfg := livenet.DefaultConfig()
	bindProtocolFlags(flag.CommandLine, &cfg)
	var (
		id        = flag.Int("id", 0, "peer ID (0 = the source/RP)")
		listen    = flag.String("listen", "127.0.0.1:0", "UDP address to bind (port 0 picks a free one)")
		bootstrap = flag.String("bootstrap", "", "rendezvous point address (empty = this node is the RP)")
		source    = flag.Bool("source", false, "emit the stream (must be id 0)")
		periods   = flag.Int("periods", 60, "session length in scheduling periods")
		exitat    = flag.Int("exitat", 0, "abruptly fail at this period (0 = run to completion)")
		shape     = flag.String("shape", "", "egress WAN shaping profile, e.g. loss=2%,latency=50ms,jitter=20ms")
		shapeseed = flag.Uint64("shapeseed", 0, "traffic shaper seed (fixed seed = replayable drop/delay sequence)")
		logevery  = flag.Int("logevery", 10, "progress log cadence in periods")
		timeout   = flag.Duration("timeout", 3*time.Minute, "hard wall-clock bound on the whole run")
	)
	flag.Parse()

	logger := log.New(os.Stderr, fmt.Sprintf("livenode[%d] ", *id), log.Ltime|log.Lmicroseconds)
	node, err := livenet.NewNode(cfg, livenet.NodeConfig{
		ID:        *id,
		Listen:    *listen,
		Bootstrap: *bootstrap,
		Source:    *source,
		ExitAt:    *exitat,
		Shape:     *shape,
		ShapeSeed: *shapeseed,
		Logf:      logger.Printf,
		LogEvery:  *logevery,
	})
	if err != nil {
		logger.Fatalf("setup: %v", err)
	}
	fmt.Printf("LISTEN=%s\n", node.Addr())
	logger.Printf("bound %s, bootstrap %q, %d periods of %v", node.Addr(), *bootstrap, *periods, cfg.Period)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	st, err := node.Run(ctx, *periods)
	if err != nil {
		logger.Printf("run failed: %v", err)
		os.Exit(1)
	}
	logger.Printf("done: %d periods, continuity %.3f, delivered %d", st.Periods, st.Continuity, st.Delivered)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(struct {
		ID int
		livenet.Stats
	}{ID: *id, Stats: st}); err != nil {
		logger.Fatalf("stats: %v", err)
	}
}
