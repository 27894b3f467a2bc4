package core

import (
	"fmt"
	"runtime"
	"testing"

	"continustreaming/internal/churn"
	"continustreaming/internal/sim"
)

// benchStep measures steady-state World.Step cost at population n with the
// given worker-pool width. The world warms up past the playback delay
// first so every phase (scheduling, transfers, deliveries, pre-fetch,
// churn) carries its full load during the timed rounds.
func benchStep(b *testing.B, n, workers int) {
	b.Helper()
	cfg := DefaultConfig(n)
	cfg.Churn = churn.DefaultConfig()
	benchStepConfig(b, cfg, workers)
}

// benchStepConfig is benchStep for an arbitrary base configuration.
func benchStepConfig(b *testing.B, cfg Config, workers int) {
	b.Helper()
	cfg.Profile = ProfileContinuStreaming()
	cfg.Workers = workers
	cfg.Seed = 1
	w, err := NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	engine.Run(cfg.PlaybackDelayRounds + 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(1)
	}
}

// BenchmarkStep10k drives one scheduling period of a 10,000-node overlay
// under churn — past the paper's largest evaluation size — once with a
// single worker (the pre-refactor sequential resolve path's concurrency)
// and once with every available core. The sharded pipeline guarantees both
// configurations produce bit-identical simulations; the benchmark exists
// to show the wall-clock gap between them on multi-core hardware.
func BenchmarkStep10k(b *testing.B) {
	widths := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		widths = append(widths, p)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchStep(b, 10000, workers)
		})
	}
}

// BenchmarkStepStatic8k drives one round of a warmed 8000-node static
// world — Figure 7's largest size, and the repository benchmark's
// sim_static_8k world — at every available core. With churn idle the
// round is schedule, serve, apply and the pre-fetch rescue path, so this
// is the benchmark (and, with -cpuprofile, the profile) for work on those
// phases.
func BenchmarkStepStatic8k(b *testing.B) {
	benchStepConfig(b, DefaultConfig(8000), runtime.GOMAXPROCS(0))
}

// BenchmarkStep1k is the paper-scale reference point for the same
// measurement.
func BenchmarkStep1k(b *testing.B) {
	widths := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		widths = append(widths, p)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchStep(b, 1000, workers)
		})
	}
}

// BenchmarkMaintenance10k isolates the neighbour-maintenance phase on a
// warmed 10,000-node world under churn: membership-gossip scatter, hear
// delivery and dead-neighbour cleanup, rewire planning through the
// provider seam, and the sequential intent application. The phase runs
// entirely out of the round-lived shard arenas, so allocs/op is the
// headline number — it must stay near zero as the planning fast path and
// arena reuse carry the steady state.
// BenchmarkSchedule10k isolates the scheduling slice of a round — buffer-
// map exchange, word-parallel candidate enumeration, Algorithm 1 selection
// — on a warmed 10,000-node world under churn, through the same exported
// seam cmd/benchreport gates in CI. BenchSchedulePhase unwinds the
// pending-request marks it sets, so every iteration schedules the
// identical candidate load.
func BenchmarkSchedule10k(b *testing.B) {
	cfg := DefaultConfig(10000)
	cfg.Profile = ProfileContinuStreaming()
	cfg.Churn = churn.DefaultConfig()
	cfg.Workers = 1
	cfg.Seed = 1
	w, err := NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	engine.Run(cfg.PlaybackDelayRounds + 2)
	want := w.BenchSchedulePhase(engine.Clock())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := w.BenchSchedulePhase(engine.Clock()); got != want {
			b.Fatalf("iteration scheduled %d requests, first pass scheduled %d — unwind failed", got, want)
		}
	}
}

func BenchmarkMaintenance10k(b *testing.B) {
	cfg := DefaultConfig(10000)
	cfg.Profile = ProfileContinuStreaming()
	cfg.Churn = churn.DefaultConfig()
	cfg.Workers = 1
	cfg.Seed = 1
	w, err := NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	engine.Run(cfg.PlaybackDelayRounds + 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.maintenancePhase()
	}
}
