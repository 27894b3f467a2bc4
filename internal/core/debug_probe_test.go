package core

import (
	"fmt"
	"testing"

	"continustreaming/internal/churn"
	"continustreaming/internal/sim"
)

// TestDebugProbe is a diagnostic harness, skipped unless -run selects it
// with verbose mode; it prints per-round pipeline statistics.
func TestDebugProbe(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic probe; run with -v -run TestDebugProbe")
	}
	cfg := DefaultConfig(1000)
	cfg.Profile = ProfileCoolStreaming()
	cfg.Seed = 7
	cfg.PlaybackDelaySegments = 65
	cfg.Churn = churn.DefaultConfig()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	for r := 0; r < 30; r++ {
		engine.Run(1)
		s := w.Collector().Samples()[r]
		pos := w.playbackPos(r)
		fetch := w.fetchEdge(r)
		fill, started := 0.0, 0
		for _, id := range w.Nodes() {
			n := w.Node(id)
			if n.IsSource {
				continue
			}
			held := 0
			for sid := pos; sid < fetch; sid++ {
				if n.Buf.Has(sid) {
					held++
				}
			}
			fill += float64(held) / float64(fetch-pos)
			if n.Started {
				started++
			}
		}
		fill /= float64(w.Size() - 1)
		deg := 0
		for _, id := range w.Nodes() {
			deg += len(w.neighborsOf(id))
		}
		fmt.Printf("r=%2d cont=%.3f req/node=%.1f deliv/node=%.1f dropped=%d started=%d fill=%.3f avgdeg=%.1f srcdeg=%d alive=%d\n",
			r, s.Continuity(), float64(s.Requests)/float64(w.Size()-1),
			float64(s.Deliveries)/float64(w.Size()-1), s.Dropped, started, fill,
			float64(deg)/float64(w.Size()), len(w.neighborsOf(w.Source())), w.Size())
	}
}

// TestDebugMatrix sweeps seeds × profiles and prints stable-phase
// continuity, exposing bistability and profile effects side by side.
func TestDebugMatrix(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic probe; run with -v -run TestDebugMatrix")
	}
	profiles := []Profile{
		ProfileCoolStreaming(),
		ProfileSchedulingOnly(),
		ProfileContinuStreaming(),
	}
	for _, dynamic := range []bool{true} {
		for _, seed := range []uint64{7} {
			for _, prof := range profiles {
				cfg := DefaultConfig(1000)
				cfg.Profile = prof
				cfg.Seed = seed
				cfg.PlaybackDelaySegments = 65
				if dynamic {
					cfg.Churn = churn.DefaultConfig()
				}
				w, err := NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sim.NewEngine(w, cfg.Tau).Run(32)
				cont := w.Collector().ContinuitySeries()
				fmt.Printf("dyn=%-5v seed=%2d profile=%-28s tail10=%.3f last=%.3f\n",
					dynamic, seed, prof.Name, cont.TailMean(10), cont.Values[cont.Len()-1])
			}
		}
	}
}
