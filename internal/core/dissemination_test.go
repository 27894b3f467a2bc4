package core

import (
	"reflect"
	"testing"

	"continustreaming/internal/churn"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// serveFixture builds a world at playback position pos — every buffer
// advanced there, as beginRound leaves them — and picks a non-source
// supplier.
func serveFixture(t *testing.T, workers int, pos segment.ID) (*World, overlay.NodeID) {
	t.Helper()
	cfg := smallConfig(30, ProfileContinuStreaming())
	cfg.Workers = workers
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sup overlay.NodeID = -1
	for _, id := range w.Nodes() {
		if id != w.Source() && len(w.neighborsOf(id)) > 0 {
			sup = id
			break
		}
	}
	if sup < 0 {
		t.Fatal("no usable supplier")
	}
	for _, id := range w.Nodes() {
		w.Node(id).Buf.AdvanceTo(pos)
	}
	return w, sup
}

// freshAsks stages asks for ids from the world's first nodes, one each, as
// pullAsks stages an engine-profile supplier's fresh asks for
// serveSupplier: deadlines for a round that starts at 0 with playback at
// pos.
func freshAsks(w *World, pos segment.ID, ids ...segment.ID) *roundArena {
	ar := &roundArena{}
	for i, id := range ids {
		ar.planAsks = append(ar.planAsks, protocol.Ask{Requester: w.Nodes()[i], ID: id, Deadline: w.deadlineOf(id, pos, w.cfg.Stream.Rate, 0)})
	}
	return ar
}

// TestSupplierServesEarliestDeadlineFirst pins the engine's service
// discipline on a contended supplier: with more asks than outbound
// capacity, the earliest-deadline requests are granted (in deadline
// order) and equal deadlines break toward the segment that is rarest in
// the supplier's own neighbourhood — identically at any Workers setting,
// since the serve path is shard-owned and worker-free.
func TestSupplierServesEarliestDeadlineFirst(t *testing.T) {
	var first []segment.ID
	for _, workers := range []int{1, 4} {
		pos := segment.ID(100)
		w, sup := serveFixture(t, workers, pos)
		sn := w.Node(sup)
		sn.Rates.Out = 1                    // capacity 2 with backlog spill
		sn.up.Open(sn.Rates.Out, w.cfg.Tau) // as beginRound does
		// Six contending requesters asking for segments at increasing
		// deadlines (ids 1, 2, 3 rounds ahead of pos).
		ar := freshAsks(w, pos, pos+25, pos+15, pos+35, pos+12, pos+22, pos+32)
		res := w.serveSupplier(ar, sn, sim.Time(w.cfg.Tau), pos)
		if len(res.Granted) != 2 {
			t.Fatalf("granted %d, want capacity 2", len(res.Granted))
		}
		got := []segment.ID{res.Granted[0].ID, res.Granted[1].ID}
		// The two earliest-deadline segments are the ids one round ahead
		// (pos+12, pos+15), in requester/ID-deterministic order.
		for _, id := range got {
			if id != pos+12 && id != pos+15 {
				t.Fatalf("granted %v, want the round-ahead segments {112, 115}", got)
			}
		}
		// Ungranted round-ahead work is deadline-evicted (it cannot be
		// served next round in time); the rest queues up to QueueFactor·O.
		if res.Evicted.Total()+int64(len(res.Queued)) != 4 {
			t.Fatalf("evicted %d + queued %d, want the 4 ungranted asks", res.Evicted.Total(), len(res.Queued))
		}
		if workers == 1 {
			first = got
		} else if !reflect.DeepEqual(first, got) {
			t.Fatalf("serve order differs across workers: %v vs %v", first, got)
		}
	}
}

// TestSupplierBreaksDeadlineTiesByRarity pins the tie-break: two
// requests due the same round, one for a segment every supplier
// neighbour advertises, one for a segment none do — the rare segment
// must win the single grant slot.
func TestSupplierBreaksDeadlineTiesByRarity(t *testing.T) {
	w, sup := serveFixture(t, 1, 0)
	sn := w.Node(sup)
	sn.Rates.Out = 1
	sn.up.Open(sn.Rates.Out, w.cfg.Tau) // as beginRound does
	pos := segment.ID(0)
	common, rare := pos+2, pos+3 // same round => same deadline
	// Every neighbour of sup advertises the common segment.
	for _, nb := range w.neighborsOf(sup) {
		w.Node(nb).Buf.Insert(common)
	}
	ar := freshAsks(w, pos, common, rare)
	// Capacity 1: one push send charged against the supplier leaves one
	// slot of its 2·O horizon.
	sn.up.ChargePush()
	res := w.serveSupplier(ar, sn, sim.Time(w.cfg.Tau), pos)
	if len(res.Granted) != 1 || res.Granted[0].ID != rare {
		t.Fatalf("granted %+v, want the rare segment %d first", res.Granted, rare)
	}
}

// TestQueueCarriesUnservedRequests pins the outbound queueing contract:
// overload beyond the backlog horizon is carried (earliest deadlines
// first) and served from the queue on the next call, rather than dropped.
func TestQueueCarriesUnservedRequests(t *testing.T) {
	w, sup := serveFixture(t, 1, 0)
	sn := w.Node(sup)
	sn.Rates.Out = 1
	sn.up.Open(sn.Rates.Out, w.cfg.Tau) // as beginRound does
	pos := segment.ID(0)
	// Far-future deadlines so nothing is deadline-evicted; supplier must
	// hold the segments for the carried entries to survive revalidation.
	var ids []segment.ID
	for i := 0; i < 5; i++ {
		id := pos + segment.ID(40+i)
		sn.Buf.Insert(id)
		ids = append(ids, id)
	}
	res := w.serveSupplier(freshAsks(w, pos, ids...), sn, sim.Time(w.cfg.Tau), pos)
	if len(res.Granted) != 2 {
		t.Fatalf("granted %d, want 2", len(res.Granted))
	}
	if qn := len(sn.carry); qn != 2 { // QueueFactor 2 × Out 1
		t.Fatalf("queued %d, want QueueFactor·O = 2", qn)
	}
	if res.Evicted.Overflow != 1 {
		t.Fatalf("overflow evictions = %d, want 1", res.Evicted.Overflow)
	}
	// Next round: no fresh asks; the carried pair is served first.
	res2 := w.serveSupplier(&roundArena{}, sn, 2*sim.Time(w.cfg.Tau), pos)
	if len(res2.Granted) != 2 || !res2.Granted[0].Carried || !res2.Granted[1].Carried {
		t.Fatalf("carried requests not served next round: %+v", res2.Granted)
	}
	if len(sn.carry) != 0 {
		t.Fatal("queue not drained")
	}
}

// TestPushSeedsFreshSegments pins the push phase end to end: an engine
// profile records push deliveries from round one, the duplicates stay a
// modest fraction, and the baseline profile never pushes.
func TestPushSeedsFreshSegments(t *testing.T) {
	cfg := smallConfig(100, ProfileContinuStreaming())
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.NewEngine(w, cfg.Tau).Run(10)
	tot := w.Collector().Totals()
	if tot.PushDeliveries == 0 {
		t.Fatal("engine profile recorded no push deliveries")
	}
	if tot.PushDuplicates > tot.PushDeliveries {
		t.Fatalf("push duplicates (%d) exceed deliveries (%d): the planner is spraying blindly",
			tot.PushDuplicates, tot.PushDeliveries)
	}
	cool, err := NewWorld(smallConfig(100, ProfileCoolStreaming()))
	if err != nil {
		t.Fatal(err)
	}
	sim.NewEngine(cool, cfg.Tau).Run(10)
	if ct := cool.Collector().Totals(); ct.PushDeliveries != 0 || ct.QueueServed != 0 {
		t.Fatalf("baseline used the engine: push=%d queueServed=%d", ct.PushDeliveries, ct.QueueServed)
	}
}

// TestWarmContinuityExcludesFreshJoiners pins the ContinuityWarm metric:
// under churn the warm variant tracks at or above the plain metric up to
// a small tolerance (it removes fresh joiners — who almost never play
// continuously — from both numerator and denominator; a joiner that
// catches up instantly can nudge it fractionally below) and its
// denominator must stay below the full population once joins happen.
func TestWarmContinuityExcludesFreshJoiners(t *testing.T) {
	cfg := smallConfig(150, ProfileContinuStreaming())
	cfg.Churn = churn.DefaultConfig()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.NewEngine(w, cfg.Tau).Run(20)
	samples := w.Collector().Samples()
	sawExclusion := false
	for _, s := range samples[10:] {
		if s.WarmNodes > s.PlayingNodes {
			t.Fatalf("warm denominator %d exceeds population %d", s.WarmNodes, s.PlayingNodes)
		}
		if s.WarmNodes < s.PlayingNodes {
			sawExclusion = true
		}
		if s.ContinuityWarm()+0.02 < s.Continuity() {
			t.Fatalf("round %d: warm continuity %.4f well below plain %.4f",
				s.Round, s.ContinuityWarm(), s.Continuity())
		}
	}
	if !sawExclusion {
		t.Fatal("20 churn rounds never excluded a fresh joiner")
	}
}
