package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// filled lists the grants a hand-off list holds, destination shards
// ascending.
func filled(h *handoff) []delivery {
	var out []delivery
	for d := range phaseShards {
		out = append(out, h.to(d)...)
	}
	return out
}

// onlyTo returns recs when d is the shard under test, nothing otherwise.
func onlyTo(d, shard int, recs []delivery) []delivery {
	if d != shard {
		return nil
	}
	return recs
}

// handOff lays out and fills the grant hand-off lists in every arena, the
// way the serve phase does but from a pool of its own: recs(r, d) is what
// serve shard r hands shard d.
func handOff(arenas []roundArena, recs func(r, d int) []delivery) {
	for r := range arenas {
		h := &arenas[r].deliverScatter
		h.clearBounds()
		for d := range phaseShards {
			h.reserve(d, int32(len(recs(r, d))))
		}
	}
	var p pool
	layout(&p, arenas)
	for r := range arenas {
		for d := range phaseShards {
			for _, rec := range recs(r, d) {
				arenas[r].deliverScatter.put(d, rec)
			}
		}
	}
}

// receiverRuns runs receiver shard s's two apply passes over arenas, its
// grouped copy allocated at the size the first pass counts.
func receiverRuns(arenas []roundArena, s int, rank []int32, end sim.Time, fn func([]delivery)) {
	arenas[s].applyBucket = make([]delivery, countArrivals(arenas, s, rank, end))
	eachReceiverRun(arenas, s, rank, end, fn)
}

// TestHandoffKeepsEmissionOrderPerDestination fills hand-off lists with
// records for random destinations, interleaved, against reservations that
// are sometimes larger than what arrives: each destination's segment must
// read back exactly its records in emission order, the holes unseen, and
// a put past a segment's reservation must panic rather than spill into
// the next one.
func TestHandoffKeepsEmissionOrderPerDestination(t *testing.T) {
	const emitted = 500
	rng := sim.DeriveRNG(23, 1)
	arenas := make([]roundArena, 3)
	dest := make([][emitted]int, len(arenas)) // record i of producer r goes to dest[r][i]
	want := make([][phaseShards][]int32, len(arenas))
	for r := range arenas {
		for i := range dest[r] {
			d := rng.Intn(phaseShards / 2) // half the shards get nothing
			dest[r][i] = d
			want[r][d] = append(want[r][d], int32(r*emitted+i))
		}
	}
	var p pool
	for round := 0; round < 2; round++ { // the second round reuses the pool
		for r := range arenas {
			h := &arenas[r].deliverScatter
			h.clearBounds()
			for d, recs := range want[r] {
				h.reserve(d, int32(len(recs)+rng.Intn(3))) // a bound, not a count
			}
		}
		layout(&p, arenas)
		for r := range arenas {
			for i, d := range dest[r] {
				arenas[r].deliverScatter.put(d, delivery{to: int32(r*emitted + i)})
			}
			for d := range phaseShards {
				var got []int32
				for _, g := range arenas[r].deliverScatter.to(d) {
					got = append(got, g.to)
				}
				if !slices.Equal(got, want[r][d]) {
					t.Fatalf("round %d producer %d shard %d: read back %v, emitted %v", round, r, d, got, want[r][d])
				}
			}
		}
	}
	one := make([]roundArena, 1)
	one[0].deliverScatter.reserve(0, 1)
	one[0].deliverScatter.reserve(1, 1)
	layout(&p, one)
	one[0].deliverScatter.put(0, delivery{to: 1})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "shard 0 is full at its 1 reserved slots") {
			t.Fatalf("overfilling a segment: recovered %q, want the full-segment panic", msg)
		}
		if got := one[0].deliverScatter.to(1); len(got) != 0 {
			t.Fatalf("the overfill reached shard 1's segment: %v", got)
		}
	}()
	one[0].deliverScatter.put(0, delivery{to: 2})
}

// TestRecordNarrowingGuards pins the int32 fields of the hand-off record:
// the largest segment ID and millisecond stamp a delivery holds
// round-trip, and one past either bound panics naming it instead of
// wrapping.
func TestRecordNarrowingGuards(t *testing.T) {
	const top = math.MaxInt32
	if d := newDelivery(1, 2, top, top, true); segment.ID(d.id) != top || sim.Time(d.at) != top || !d.prefetch {
		t.Fatalf("newDelivery at the bound stored %+v", d)
	}
	bound := fmt.Sprint(top)
	for _, tc := range []struct {
		name string
		mk   func()
	}{
		{"delivery segment", func() { newDelivery(1, 2, top+1, 0, false) }},
		{"delivery stamp", func() { newDelivery(1, 2, 0, top+1, false) }},
		{"negative stamp", func() { newDelivery(1, 2, 0, math.MinInt32-1, false) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "int32 bound "+bound) {
					t.Errorf("%s: recovered %q, want a panic naming the int32 bound %s", tc.name, msg, bound)
				}
			}()
			tc.mk()
		}()
	}
	if got := unsafe.Sizeof(delivery{}); got != 20 {
		t.Errorf("a delivery record takes %d bytes, want 20", got)
	}
}

// poolRecords is a pool's capacity in records.
func poolRecords(p *pool) int {
	n := 0
	for _, c := range p.chunks {
		n += len(c)
	}
	return n
}

// streamBytes is one record stream's footprint after a round: held is the
// capacity of its world pool, sent the bytes of the records the round put
// in it (fills, not reservations).
type streamBytes struct {
	name       string
	held, sent int64
}

// handoffBytes measures a stepped world's grant hand-off lists and their
// grouped copies. Both still hold the last round's records: each is
// refilled only when its phase runs again in the next round.
func handoffBytes(w *World) []streamBytes {
	var grants, due int
	for s := range w.arenas {
		ar := &w.arenas[s]
		for d := range phaseShards {
			grants += len(ar.deliverScatter.to(d))
		}
		due += len(ar.applyBucket)
	}
	ds := int64(unsafe.Sizeof(delivery{}))
	l := &w.lists
	return []streamBytes{
		{"grants", int64(poolRecords(&l.grants)) * ds, int64(grants) * ds},
		{"due", int64(poolRecords(&l.due)) * ds, int64(due) * ds},
	}
}

// TestRoundArenaCeiling holds the round's grant hand-off lists and their
// grouped copies to the round's size on a 2 000-node churn world at two
// workers:
// from round 10 on, what their pools hold may be at most 1.3 times the
// bytes of the records the round handed off through them, and it may not
// grow from round 20 to round 30. Grow-only lists fail both: the 64×64
// per-pair buckets this replaced held 1.97 times the records at round 10
// and 2.57 at round 30, growing from 8.27 to 9.06 MB over the last ten
// rounds.
func TestRoundArenaCeiling(t *testing.T) {
	const nodes, rounds, ratio = 2000, 30, 1.3
	cfg := churnConfig(nodes)
	cfg.Workers = 2
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	var held20 int64
	for r := 1; r <= rounds; r++ {
		engine.Run(1)
		var held, sent int64
		var line strings.Builder
		for _, sb := range handoffBytes(w) {
			held += sb.held
			sent += sb.sent
			fmt.Fprintf(&line, " %s %d/%d", sb.name, sb.held, sb.sent)
		}
		if r%10 == 0 {
			t.Logf("round %d: held/sent bytes%s; %d/%d in all (%.3f)", r, line.String(), held, sent, float64(held)/float64(sent))
		}
		if r >= 10 && float64(held) > ratio*float64(sent) {
			t.Errorf("round %d: hand-off pools hold %d B for %d B of records, %.2f times, ceiling %.1f", r, held, sent, float64(held)/float64(sent), ratio)
		}
		switch r {
		case 20:
			held20 = held
		case rounds:
			if held > held20 {
				t.Errorf("hand-off pools grew from %d B at round 20 to %d B at round %d", held20, held, r)
			}
		}
	}
}
