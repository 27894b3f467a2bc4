package core

import (
	"cmp"
	"runtime"
	"slices"
	"testing"

	"continustreaming/internal/metrics"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// pushHop is what one hop of the push phase did: per shard, the sends it
// planned, each with its pusher's ready-at; per receiver shard, in apply
// order, the frontier entries it put there for the next hop and the late
// copies it put in flight; and the counters it added.
type pushHop struct {
	sends  [phaseShards][]pushSend
	held   [phaseShards][]pushSeg
	late   [phaseShards][]delivery
	counts metrics.RoundSample
}

// referencePush is the push phase as it was before the frontier moved into
// the shard arenas, recording each hop: one world-wide frontier sorted by
// holder, each holder's run found by binary search, pushers partitioned by
// shard and planned shard by shard, the sends applied in shard order, and
// the next frontier stably sorted by holder.
func referencePush(w *World, clock *sim.Clock) []pushHop {
	hops := w.cfg.PushHops
	lo := max(w.liveEdge(w.round), 0)
	hi := w.fetchEdge(w.round)
	start, end := clock.Now(), clock.RoundEnd()
	var frontier []pushSeg
	for id := lo; id < hi; id++ {
		if w.nodes[w.source].Buf.Has(id) {
			frontier = append(frontier, pushSeg{holder: w.source, id: id, readyAt: start})
		}
	}
	heldBy := func(holder overlay.NodeID) []pushSeg {
		i, _ := slices.BinarySearchFunc(frontier, holder, func(ps pushSeg, h overlay.NodeID) int {
			return cmp.Compare(ps.holder, h)
		})
		j := i
		for j < len(frontier) && frontier[j].holder == holder {
			j++
		}
		return frontier[i:j]
	}
	readyAt := func(from overlay.NodeID, id segment.ID) sim.Time {
		for _, ps := range heldBy(from) {
			if ps.id == id {
				return ps.readyAt
			}
		}
		return start
	}
	lacks := func(to overlay.NodeID) uint64 {
		t := w.nodes[to]
		if t == nil || t.pushReceived >= t.Rates.In {
			return 0
		}
		return t.Buf.MissingMask(segment.Window{Lo: lo, Hi: hi})
	}
	var log []pushHop
	for hop := 1; hop <= hops && len(frontier) > 0; hop++ {
		var rec pushHop
		byShard := make([][]overlay.NodeID, phaseShards)
		for i, ps := range frontier {
			if i == 0 || ps.holder != frontier[i-1].holder {
				s := w.shardOf(ps.holder)
				byShard[s] = append(byShard[s], ps.holder)
			}
		}
		seed := w.phaseSeed(phasePush ^ uint64(hop)<<20)
		for s, pushers := range byShard {
			for _, id := range pushers {
				budget := w.nodes[id].up.PushRoom()
				if budget <= 0 {
					continue
				}
				var segs []segment.ID
				for _, ps := range heldBy(id) {
					segs = append(segs, ps.id)
				}
				for _, snd := range protocol.PlanPushMask(seed^uint64(id)*0x9e3779b97f4a7c15, id, lo, segs, w.neighborsOf(id), lacks, budget) {
					rec.sends[s] = append(rec.sends[s], pushSend{Send: snd, readyAt: readyAt(snd.From, snd.ID)})
				}
			}
		}
		var next []pushSeg
		for _, sends := range rec.sends {
			for _, snd := range sends {
				t := w.nodes[snd.To]
				if t == nil {
					continue
				}
				up := &w.nodes[snd.From].up
				t.pushReceived++
				at := snd.readyAt + up.WireAt(up.ChargePush()) + w.Latency(snd.From, snd.To)
				d := w.shardOf(snd.To)
				if at > end {
					late := newDelivery(snd.To, snd.From, snd.ID, at, false)
					w.arenas[d].later = append(w.arenas[d].later, late)
					rec.late[d] = append(rec.late[d], late)
					continue
				}
				rec.counts.DataBits += w.cfg.Stream.BitsPerSegment
				rec.counts.Deliveries++
				if !t.receive(snd.ID, at) {
					rec.counts.PushDuplicates++
					continue
				}
				rec.counts.PushDeliveries++
				t.Ctrl.ObserveDelivery(int(snd.From), (at - start).Seconds())
				t.maybeBackup(w.space, snd.ID, w.cfg.Replicas)
				ps := pushSeg{holder: snd.To, id: snd.ID, readyAt: at}
				next = append(next, ps)
				if hop < hops {
					rec.held[d] = append(rec.held[d], ps)
				}
			}
		}
		slices.SortStableFunc(next, func(a, b pushSeg) int { return cmp.Compare(a.holder, b.holder) })
		frontier = next
		log = append(log, rec)
	}
	return log
}

// hoppedPush runs the push phase hop by hop, as pushPhase does, recording
// each hop from the shard arenas it leaves: the sends stay there until the
// next hop plans, the new frontier until it sorts, and the late copies are
// what each shard's in-flight list gained.
func hoppedPush(w *World, clock *sim.Clock) []pushHop {
	var log []pushHop
	hops := w.cfg.PushHops
	for hop, frontier := 1, w.seedPush(clock.Now()); hop <= hops && frontier > 0; hop++ {
		var rec pushHop
		var lateAt [phaseShards]int
		for s := range w.arenas {
			lateAt[s] = len(w.arenas[s].later)
		}
		frontier = w.pushHop(hop, hop < hops, clock, &rec.counts)
		for s := range w.arenas {
			rec.sends[s] = slices.Clone(w.arenas[s].sends)
			rec.held[s] = slices.Clone(w.arenas[s].held)
			rec.late[s] = slices.Clone(w.arenas[s].later[lateAt[s]:])
		}
		log = append(log, rec)
	}
	return log
}

// TestPushFrontierMatchesReference checks the push phase's shard-owned
// frontier against the world-wide one it replaced, kept here as the
// reference. Two copies of a 1 000-node churn world step in lockstep at
// three push hops, so one hop both receives and forwards; at each round's
// push, one runs the production hops and the other the reference, and
// every hop's sends, the new frontier entries its deliveries made and the
// late copies it put in flight must match entry for entry, shard by shard,
// with the same counters. The copies' per-round samples must match too.
func TestPushFrontierMatchesReference(t *testing.T) {
	const nodes, rounds, hops = 1000, 8, 3
	for _, workers := range []int{1, 4} {
		var got, want []pushHop
		world := func(push func(*World, *sim.Clock) []pushHop, log *[]pushHop) (*World, *sim.Engine) {
			cfg := churnConfig(nodes)
			cfg.Workers, cfg.PushHops = workers, hops
			var w *World
			var engine *sim.Engine
			// Each copy runs its push at the probe, then steps over the
			// phase's own call with PushHops at 0 until the exchange.
			cfg.PhaseProbe = func(phase string) {
				switch phase {
				case "push":
					*log = push(w, engine.Clock())
					w.cfg.PushHops = 0
				case "exchange":
					w.cfg.PushHops = hops
				}
			}
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			engine = sim.NewEngine(w, cfg.Tau)
			return w, engine
		}
		hopped, hoppedEngine := world(hoppedPush, &got)
		ref, refEngine := world(referencePush, &want)
		var sends, held, late int
		for r := 0; r < rounds; r++ {
			hoppedEngine.Run(1)
			refEngine.Run(1)
			if len(got) != len(want) {
				t.Fatalf("workers %d round %d: %d push hops, the reference ran %d", workers, r, len(got), len(want))
			}
			for h := range got {
				g, rh := &got[h], &want[h]
				for s := range phaseShards {
					if !slices.Equal(g.sends[s], rh.sends[s]) {
						t.Fatalf("workers %d round %d hop %d shard %d: sends %v, the reference planned %v", workers, r, h+1, s, g.sends[s], rh.sends[s])
					}
					if !slices.Equal(g.held[s], rh.held[s]) {
						t.Fatalf("workers %d round %d hop %d shard %d: frontier %v, the reference's %v", workers, r, h+1, s, g.held[s], rh.held[s])
					}
					if !slices.Equal(g.late[s], rh.late[s]) {
						t.Fatalf("workers %d round %d hop %d shard %d: late copies %v, the reference's %v", workers, r, h+1, s, g.late[s], rh.late[s])
					}
					sends += len(g.sends[s])
					held += len(g.held[s])
					late += len(g.late[s])
				}
				if g.counts != rh.counts {
					t.Fatalf("workers %d round %d hop %d: counted %+v, the reference %+v", workers, r, h+1, g.counts, rh.counts)
				}
			}
		}
		if a, b := sampleFingerprint(hopped), sampleFingerprint(ref); a != b {
			t.Fatalf("workers %d: the hopped world's samples %s differ from the reference world's %s", workers, a, b)
		}
		t.Logf("workers %d: %d sends, %d frontier entries, %d late copies compared", workers, sends, held, late)
		if sends == 0 || held == 0 || late == 0 {
			t.Fatalf("workers %d: %d sends, %d frontier entries, %d late copies: the comparison was partly vacuous", workers, sends, held, late)
		}
	}
}

// TestPushHopAllocationFree pins the push phase's steady state: the
// frontier, the sends, each pusher's segment list and the planner's
// protocol.PushScratch are grow-only shard arenas, so on a warmed static
// world a round's push costs the fixed price of each hop's sim.ForShards
// fan-out and availability probe, and not one allocation per pusher. The
// phase runs at its probe, once, and the round's own call is skipped.
func TestPushHopAllocationFree(t *testing.T) {
	cfg := smallConfig(400, ProfileContinuStreaming())
	cfg.Workers = 1
	measured := cfg.PlaybackDelayRounds + 10
	var w *World
	var engine *sim.Engine
	var allocs uint64
	var sends int
	cfg.PhaseProbe = func(phase string) {
		switch {
		case phase == "push" && w.round == measured:
			var before, after runtime.MemStats
			var sample metrics.RoundSample
			runtime.ReadMemStats(&before)
			w.pushPhase(engine.Clock(), &sample)
			runtime.ReadMemStats(&after)
			allocs, sends = after.Mallocs-before.Mallocs, int(sample.Deliveries)
			w.cfg.PushHops = 0
		case phase == "exchange":
			w.cfg.PushHops = cfg.PushHops
		}
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine = sim.NewEngine(w, cfg.Tau)
	engine.Run(measured + 1)
	// One hop's fixed price: a fan-out whose closure captures the world
	// and a probe closure, as pushHop's does.
	probe := func(overlay.NodeID) uint64 { return uint64(w.round) }
	fanout := testing.AllocsPerRun(20, func() {
		sim.ForShards(w.pool, phaseShards, func(s int) { _ = probe(overlay.NodeID(s)) + uint64(len(w.arenas[s].sends)) })
	})
	t.Logf("push phase: %d allocs for %d delivered copies over %d hops; one fan-out %.0f", allocs, sends, cfg.PushHops, fanout)
	if sends == 0 {
		t.Fatal("the measured push delivered nothing")
	}
	if limit := uint64(cfg.PushHops) * uint64(fanout+1); allocs > limit {
		t.Fatalf("push phase allocates %d times, %d hops' fan-outs and probes cost %d", allocs, cfg.PushHops, limit)
	}
}
