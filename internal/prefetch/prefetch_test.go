package prefetch

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

func paperAlphaConfig() AlphaConfig {
	return AlphaConfig{
		PlaybackRate:  10,
		BufferSize:    600,
		Tau:           sim.Second,
		THop:          50 * sim.Millisecond,
		ExpectedNodes: 1000,
	}
}

func TestEstimateFetchTimePaperValue(t *testing.T) {
	// §5.2: t_fetch ≈ (log₂(1000)/2 + 3)·50ms ≈ 8·50ms = 400ms.
	got := EstimateFetchTime(50*sim.Millisecond, 1000)
	if got < 390*sim.Millisecond || got > 410*sim.Millisecond {
		t.Fatalf("t_fetch = %v, want ≈400ms", got)
	}
	if EstimateFetchTime(50*sim.Millisecond, 0) <= 0 {
		t.Fatal("degenerate population produced non-positive estimate")
	}
}

func TestNewAlphaPaperInitialisation(t *testing.T) {
	a := NewAlpha(paperAlphaConfig())
	// Floor = p/B · max(τ, t_fetch) = 10/600 · 1s = 1/60 (inequality 9).
	if math.Abs(a.Min()-1.0/60) > 1e-9 {
		t.Fatalf("floor = %v, want 1/60", a.Min())
	}
	// step = p·t_hop/B = 10·0.05/600 = 1/1200.
	if math.Abs(a.Step()-1.0/1200) > 1e-9 {
		t.Fatalf("step = %v, want 1/1200", a.Step())
	}
	// Initial value: one t_fetch of playback above the floor, so first
	// predictions are retrievable before their deadlines.
	tfetch := EstimateFetchTime(50*sim.Millisecond, 1000)
	want := 10.0 / 600 * (sim.Second + tfetch).Seconds()
	if math.Abs(a.Value()-want) > 1e-9 {
		t.Fatalf("alpha0 = %v, want %v", a.Value(), want)
	}
	if a.Value() <= a.Min() {
		t.Fatal("initial alpha must sit strictly above the inequality-(9) bound")
	}
}

func TestNewAlphaUsesFetchTimeWhenSlower(t *testing.T) {
	cfg := paperAlphaConfig()
	cfg.THop = 300 * sim.Millisecond // t_fetch ≈ 2.4s > τ
	a := NewAlpha(cfg)
	tfetch := EstimateFetchTime(cfg.THop, cfg.ExpectedNodes)
	wantMin := 10.0 / 600 * tfetch.Seconds()
	if math.Abs(a.Min()-wantMin) > 1e-9 {
		t.Fatalf("floor = %v, want %v", a.Min(), wantMin)
	}
	want := 10.0 / 600 * (2 * tfetch).Seconds()
	if math.Abs(a.Value()-want) > 1e-9 {
		t.Fatalf("alpha0 = %v, want %v", a.Value(), want)
	}
}

func TestNewAlphaPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	NewAlpha(AlphaConfig{})
}

func TestAlphaFeedback(t *testing.T) {
	a := NewAlpha(paperAlphaConfig())
	start := a.Value()
	a.OnOverdue()
	if math.Abs(a.Value()-(start+a.Step())) > 1e-12 {
		t.Fatalf("overdue step wrong: %v", a.Value())
	}
	// Enough repeats to hit the floor, plus extras that must not go under.
	for i := 0; i < 100; i++ {
		a.OnRepeated()
	}
	if a.Value() != a.Min() {
		t.Fatalf("alpha fell below floor: %v < %v", a.Value(), a.Min())
	}
	for i := 0; i < 5000; i++ {
		a.OnOverdue()
	}
	if a.Value() > 1 {
		t.Fatalf("alpha exceeded 1: %v", a.Value())
	}
	a.Apply(2, 1)
	if a.Value() != 1 { // already at cap, +2 clamps, -1 steps down, +... recompute
		// After cap 1.0: Apply(2,1) = two capped increments then one decrement.
		want := 1 - a.Step()
		if math.Abs(a.Value()-want) > 1e-9 {
			t.Fatalf("Apply result %v, want %v", a.Value(), want)
		}
	}
}

func TestAlphaInvariantQuick(t *testing.T) {
	f := func(events []bool) bool {
		a := NewAlpha(paperAlphaConfig())
		for _, up := range events {
			if up {
				a.OnOverdue()
			} else {
				a.OnRepeated()
			}
			if a.Value() < a.Min()-1e-12 || a.Value() > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUrgentWindow(t *testing.T) {
	// α=1/60, B=600: line sits 10 segments past the head.
	w := UrgentWindow(1000, 1.0/60, 600)
	if w.Lo != 1000 || w.Hi != 1011 {
		t.Fatalf("window = %v", w)
	}
}

func TestPredictThreeCases(t *testing.T) {
	buf := buffer.New(600, 1000)
	// Fill everything in the urgent zone: Nmiss = 0, no trigger.
	for id := segment.ID(1000); id <= 1011; id++ {
		buf.Insert(id)
	}
	d, _ := PredictInto(nil, buf, 1000, 1.0/60, 5, nil)
	if len(d.Missed) != 0 || d.Triggered {
		t.Fatalf("case 1 failed: %+v", d)
	}
	// Poke 3 holes: 0 < Nmiss <= l triggers.
	buf2 := buffer.New(600, 1000)
	for id := segment.ID(1000); id <= 1011; id++ {
		if id != 1002 && id != 1005 && id != 1010 {
			buf2.Insert(id)
		}
	}
	d, _ = PredictInto(nil, buf2, 1000, 1.0/60, 5, nil)
	if !d.Triggered || len(d.Missed) != 3 {
		t.Fatalf("case 2 failed: %+v", d)
	}
	for i := 1; i < len(d.Missed); i++ {
		if d.Missed[i-1] >= d.Missed[i] {
			t.Fatal("missed ids not ascending")
		}
	}
	// Empty urgent zone: Nmiss = 11 > l = 5, suppressed.
	buf3 := buffer.New(600, 1000)
	d, _ = PredictInto(nil, buf3, 1000, 1.0/60, 5, nil)
	if d.Triggered || len(d.Missed) != 11 {
		t.Fatalf("case 3 failed: %d missed, triggered=%v", len(d.Missed), d.Triggered)
	}
}

func TestPredictExcludesInFlight(t *testing.T) {
	buf := buffer.New(600, 1000)
	inflight := map[segment.ID]bool{1001: true, 1002: true, 1003: true, 1004: true, 1005: true, 1006: true}
	d, _ := PredictInto(nil, buf, 1000, 1.0/60, 5, func(id segment.ID) bool { return inflight[id] })
	// 11 missing minus 6 in flight = 5 <= l: triggers.
	if !d.Triggered || len(d.Missed) != 5 {
		t.Fatalf("exclude failed: %+v", d)
	}
	for _, id := range d.Missed {
		if inflight[id] {
			t.Fatalf("in-flight id %d predicted", id)
		}
	}
}

// fakeDirectory implements Directory over plain maps.
type fakeDirectory struct {
	backups map[dht.ID]map[segment.ID]bool
	rates   map[dht.ID]float64
}

func (f *fakeDirectory) HasBackup(node dht.ID, id segment.ID) bool { return f.backups[node][id] }
func (f *fakeDirectory) AvailableRate(node dht.ID) float64         { return f.rates[node] }

func buildRing(t *testing.T, space dht.Space, ids []dht.ID) *dht.Network {
	t.Helper()
	net := dht.NewNetwork(space)
	rng := sim.NewRNG(42)
	for _, id := range ids {
		if net.Join(id, rng) == nil {
			t.Fatalf("join %d failed", id)
		}
	}
	for _, id := range net.IDs() {
		net.FillTable(net.Table(id), rng)
	}
	return net
}

// locate is Algorithm 2 end to end for one segment: route, then choose.
func locate(r *Retriever, from dht.ID, id segment.ID) LookupResult {
	missed := []segment.ID{id}
	return r.Choose(missed, r.RouteAll(nil, from, missed))[0]
}

func TestRetrieverPicksHighestRateHolder(t *testing.T) {
	space := dht.NewSpace(256)
	var ids []dht.ID
	for i := 0; i < 64; i++ {
		ids = append(ids, dht.ID(i*4))
	}
	net := buildRing(t, space, ids)
	const segID = segment.ID(77)
	keys := dht.BackupKeys(space, segID, 4)
	dir := &fakeDirectory{backups: map[dht.ID]map[segment.ID]bool{}, rates: map[dht.ID]float64{}}
	var owners []dht.ID
	for _, k := range keys {
		o, ok := net.Owner(k)
		if !ok {
			t.Fatal("no owner")
		}
		owners = append(owners, o)
	}
	// Two of the owners hold the segment at different spare rates.
	dir.backups[owners[0]] = map[segment.ID]bool{segID: true}
	dir.rates[owners[0]] = 3.0
	dir.backups[owners[1]] = map[segment.ID]bool{segID: true}
	dir.rates[owners[1]] = 9.0
	r := &Retriever{Net: net, Replicas: 4, Dir: dir}
	res := locate(r, ids[0], segID)
	if !res.Found {
		t.Fatal("segment not found")
	}
	if owners[0] != owners[1] && res.Supplier != owners[1] {
		t.Fatalf("picked %d (rate %v), want highest-rate owner %d", res.Supplier, res.Rate, owners[1])
	}
	if res.RoutingMessages <= 0 {
		t.Fatal("no routing messages counted")
	}
	if len(res.Owners) == 0 {
		t.Fatal("no owners recorded")
	}
}

func TestRetrieverNotFound(t *testing.T) {
	space := dht.NewSpace(256)
	var ids []dht.ID
	for i := 0; i < 32; i++ {
		ids = append(ids, dht.ID(i*8))
	}
	net := buildRing(t, space, ids)
	dir := &fakeDirectory{backups: map[dht.ID]map[segment.ID]bool{}, rates: map[dht.ID]float64{}}
	r := &Retriever{Net: net, Replicas: 4, Dir: dir}
	res := locate(r, ids[0], 123)
	if res.Found || res.Held {
		t.Fatalf("segment nobody holds: Found=%v Held=%v", res.Found, res.Held)
	}
	// Holder exists but has no spare rate: still not found.
	key := dht.HashKey(space, 123, 1)
	owner, _ := net.Owner(key)
	dir.backups[owner] = map[segment.ID]bool{123: true}
	dir.rates[owner] = 0
	res = locate(r, ids[0], 123)
	if res.Found {
		t.Fatal("zero-rate holder selected")
	}
	if !res.Held {
		t.Fatal("a located owner holds the segment, but Held is false")
	}
}

// TestRouteAllConcurrent runs the route step from several goroutines over
// one Retriever, as the round pipeline's route stage does, and checks
// each against the sequential walks; under -race it is the check that
// RouteAll shares nothing but read-only configuration, the Choose scratch
// included.
func TestRouteAllConcurrent(t *testing.T) {
	space := dht.NewSpace(256)
	var ids []dht.ID
	for i := 0; i < 64; i++ {
		ids = append(ids, dht.ID(i*4))
	}
	net := buildRing(t, space, ids)
	dir := &fakeDirectory{backups: map[dht.ID]map[segment.ID]bool{}, rates: map[dht.ID]float64{}}
	r := &Retriever{Net: net, Replicas: 4, Dir: dir, Scratch: &Scratch{}}
	missed := []segment.ID{3, 7, 9, 40, 41}
	want := make([][]Walk, len(ids))
	for i, from := range ids {
		want[i] = r.RouteAll(nil, from, missed)
		if len(want[i]) != len(missed)*r.Replicas {
			t.Fatalf("RouteAll returned %d walks for %d segments x %d replicas", len(want[i]), len(missed), r.Replicas)
		}
	}
	const workers = 4
	got := make([][]Walk, len(ids))
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(ids); i += workers {
				got[i] = r.RouteAll(nil, ids[i], missed)
			}
		}(g)
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent RouteAll differs from the sequential walks")
	}
}
