package core

import (
	"fmt"
	"os"
	"testing"

	"continustreaming/internal/churn"
	"continustreaming/internal/dht"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// TestDiagTail runs the heterogeneous dynamic PC_new configuration (the
// hetdynamic scenario) for 40 rounds with env-var overrides and prints the
// stable-tail continuity and the failed-lookup split (DIAG=1, optional
// NODES / SEED / SRCDEG / DISTRESS / COOLDOWN integer overrides; NODES
// defaults to 1000, SEED to 1).
func TestDiagTail(t *testing.T) {
	if os.Getenv("DIAG") == "" {
		t.Skip("set DIAG=1 to run the diagnostic probe")
	}
	envInt := func(name string, def int) int {
		if v := os.Getenv(name); v != "" {
			var x int
			fmt.Sscanf(v, "%d", &x)
			return x
		}
		return def
	}
	cfg := DefaultConfig(envInt("NODES", 1000))
	cfg.Profile = ProfileContinuStreaming()
	cfg.Churn = churn.DefaultConfig()
	cfg.Seed = uint64(envInt("SEED", 1))
	cfg.SourceDegreeTarget = envInt("SRCDEG", cfg.SourceDegreeTarget)
	cfg.Maintenance.MaxDistressReplacements = envInt("DISTRESS", cfg.Maintenance.MaxDistressReplacements)
	cfg.Maintenance.ReplaceCooldownRounds = envInt("COOLDOWN", cfg.Maintenance.ReplaceCooldownRounds)
	if v := os.Getenv("THRESH"); v != "" {
		fmt.Sscanf(v, "%f", &cfg.Maintenance.LowSupplyThreshold)
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.NewEngine(w, cfg.Tau).Run(40)
	cont := w.Collector().ContinuitySeries()
	tot := w.Collector().Totals()
	fmt.Printf("nodes=%d seed=%d tail10=%.4f no_rate=%d no_backup=%d no_route=%d srcdeg=%d distress=%d cooldown=%d thresh=%.2f\n",
		cfg.Nodes, cfg.Seed, cont.TailMean(10), tot.LookupNoRate, tot.LookupNoBackup, tot.LookupNoRoute,
		cfg.SourceDegreeTarget, cfg.Maintenance.MaxDistressReplacements,
		cfg.Maintenance.ReplaceCooldownRounds, cfg.Maintenance.LowSupplyThreshold)
}

// TestDiagChurnTrack (DIAG=1) prints per-round health of the dynamic
// heterogeneous environment: mesh degree, playback distress, lookup
// failure classes, ground-truth backup coverage, routing success, and
// segment dissemination by age. This is the probe that localised the
// churn-collapse root causes (replica decay on arc reshuffle, correlated
// misses exhausting per-owner rescue capacity) — keep it current when the
// repair pipeline changes.
func TestDiagChurnTrack(t *testing.T) {
	if os.Getenv("DIAG") == "" {
		t.Skip("set DIAG=1 to run the diagnostic probe")
	}
	cfg := DefaultConfig(1000)
	cfg.Profile = ProfileContinuStreaming()
	cfg.Churn = churn.DefaultConfig()
	cfg.Seed = 1
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	for r := 0; r < 40; r++ {
		engine.Run(1)
		var degSum, degMin, zeroDeg, started, distress, under int
		degMin = 1 << 30
		for _, id := range w.Nodes() {
			n := w.Node(id)
			d := len(w.neighborsOf(id))
			degSum += d
			if d < degMin {
				degMin = d
			}
			if d == 0 {
				zeroDeg++
			}
			if d < cfg.M {
				under++
			}
			if n.Started {
				started++
			}
			if n.missStreak >= 2 {
				distress++
			}
		}
		s := w.Collector().Samples()[r]
		cont := 0.0
		if s.PlayingNodes > 0 {
			cont = float64(s.ContinuousNodes) / float64(s.PlayingNodes)
		}
		lookupOK := 0.0
		if s.LookupAttempts > 0 {
			lookupOK = float64(s.LookupFound) / float64(s.LookupAttempts)
		}
		// Ground-truth backup coverage and routing health for the segments
		// currently inside the playback window.
		pos := w.playbackPos(r)
		dir := worldDirectory{w}
		var keys, ownerHas, routeOK, segCovered int
		for off := 0; off < 20; off++ {
			id := pos + segment.ID(off)
			if id < 0 {
				continue
			}
			covered := false
			for i := 1; i <= cfg.Replicas; i++ {
				key := dht.HashKey(w.space, id, i)
				keys++
				owner, ok := w.dhtNet.Owner(key)
				if !ok {
					continue
				}
				if dir.HasBackup(owner, id) {
					ownerHas++
					covered = true
				}
				from := w.Nodes()[(r*31+off*7+i)%w.Size()]
				if res := w.dhtNet.RouteTo(dht.ID(from), key, nil); res.Success {
					routeOK++
				}
			}
			if covered {
				segCovered++
			}
		}
		// Dissemination by age: for segments born a rounds ago, the mean
		// fraction of started nodes holding them now.
		p := cfg.Stream.Rate
		var spread [8]float64
		for age := 0; age < 8; age++ {
			born := w.liveEdge(r - age)
			cnt, tot := 0, 0
			for off := 0; off < p; off++ {
				id := born + segment.ID(off)
				if id < 0 {
					continue
				}
				for _, nid := range w.Nodes() {
					n := w.Node(nid)
					if !n.Started || n.IsSource {
						continue
					}
					tot++
					if n.Buf.Has(id) {
						cnt++
					}
				}
			}
			if tot > 0 {
				spread[age] = float64(cnt) / float64(tot)
			}
		}
		// Push/queue telemetry attributes residual misses: push=seeded
		// copies (dup=wasted races), qSrv/qCar=queue throughput, and the
		// eviction split says whether abandoned asks died of deadline
		// (dissemination too slow), overflow (queue too small) or
		// staleness (churn).
		fmt.Printf("r=%2d n=%4d cont=%.3f warm=%.3f started=%4d deg=%.2f/%d under=%d zero=%d distress=%d drops=%d req=%d push=%d dup=%d qSrv=%d qCar=%d evD=%d evO=%d evS=%d lookups=%d ok=%.2f noRoute=%d noBackup=%d noRate=%d route=%.2f ownerHas=%.2f segCov=%d/20 spread=%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
			r, w.Size(), cont, s.ContinuityWarm(), started, float64(degSum)/float64(w.Size()), degMin, under, zeroDeg, distress,
			s.Dropped, s.Requests,
			s.PushDeliveries, s.PushDuplicates, s.QueueServed, s.QueueCarried,
			s.QueueEvictedDeadline, s.QueueEvictedOverflow, s.QueueEvictedStale,
			s.LookupAttempts, lookupOK,
			s.LookupNoRoute, s.LookupNoBackup, s.LookupNoRate,
			float64(routeOK)/float64(max(1, keys)), float64(ownerHas)/float64(max(1, keys)), segCovered,
			spread[1], spread[2], spread[3], spread[4], spread[5], spread[6])
	}
}
