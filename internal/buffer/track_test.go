package buffer

import (
	"math"
	"strings"
	"testing"

	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// refTrack is Track's reference model: the two expiry maps a livenet peer
// kept before it shared the tracker (swept eagerly when the period turns,
// so presence means in flight), plus a tag set, the promised arrivals, the
// first-arrival times and the backup set, all keyed by segment ID.
type refTrack struct {
	lo       segment.ID
	size     int
	pulls    map[segment.ID]int
	rescues  map[segment.ID]int
	promised map[segment.ID]sim.Time
	tags     map[segment.ID]bool
	arrived  map[segment.ID]sim.Time
	backups  map[segment.ID]bool
}

func newRefTrack(size int, lo segment.ID) *refTrack {
	return &refTrack{
		lo: lo, size: size,
		pulls: map[segment.ID]int{}, rescues: map[segment.ID]int{},
		promised: map[segment.ID]sim.Time{}, tags: map[segment.ID]bool{}, arrived: map[segment.ID]sim.Time{},
		backups: map[segment.ID]bool{},
	}
}

// turn is the eager sweep at the start of round (every entry is in-window).
func (r *refTrack) turn(round int) {
	for _, m := range []map[segment.ID]int{r.pulls, r.rescues} {
		for id := r.lo; id < r.lo+segment.ID(r.size); id++ {
			if exp, ok := m[id]; ok && exp <= round {
				delete(m, id)
			}
		}
	}
}

func (r *refTrack) advanceTo(lo segment.ID) {
	if lo <= r.lo {
		return
	}
	for id := r.lo; id < lo && id < r.lo+segment.ID(r.size); id++ {
		delete(r.pulls, id)
		delete(r.rescues, id)
		delete(r.tags, id)
		delete(r.arrived, id)
		delete(r.backups, id)
	}
	r.lo = lo
}

// compare checks every query of t against r over the window and a margin
// on both sides, the mask against the per-ID answers, and the tracker's own
// slices: no tag or backup bit past the last slot.
func (r *refTrack) compare(t *testing.T, step int, tr *Track, round int) {
	t.Helper()
	if tr.Lo() != r.lo || tr.Size() != r.size {
		t.Fatalf("step %d: tracker covers %d slots from %d, reference %d from %d", step, tr.Size(), tr.Lo(), r.size, r.lo)
	}
	origin := r.lo - 70
	words := make([]uint64, (r.size+140+63)/64)
	for i := range words {
		words[i] = ^uint64(0)
	}
	tr.MaskInFlight(words, origin, round)
	for id := origin; id < origin+segment.ID(64*len(words)); id++ {
		_, pull := r.pulls[id]
		_, rescue := r.rescues[id]
		if got := tr.InFlight(id, round); got != (pull || rescue) {
			t.Fatalf("step %d round %d seg %d: InFlight %v, reference pull %v rescue %v", step, round, id, got, pull, rescue)
		}
		if got := tr.PrefetchPending(id, round); got != rescue {
			t.Fatalf("step %d round %d seg %d: PrefetchPending %v, reference %v", step, round, id, got, rescue)
		}
		if at, ok := tr.GossipExpected(id, round); ok != pull || ok && at != r.promised[id] {
			t.Fatalf("step %d round %d seg %d: GossipExpected %d %v, reference %d %v", step, round, id, at, ok, r.promised[id], pull)
		}
		if got := tr.Tagged(id); got != r.tags[id] {
			t.Fatalf("step %d seg %d: Tagged %v, reference %v", step, id, got, r.tags[id])
		}
		if got := tr.BackedUp(id); got != r.backups[id] {
			t.Fatalf("step %d seg %d: BackedUp %v, reference %v", step, id, got, r.backups[id])
		}
		want, ok := r.arrived[id]
		if !ok {
			want = -1
		}
		if got := tr.Arrived(id); got != want {
			t.Fatalf("step %d seg %d: Arrived %d, reference %d", step, id, got, want)
		}
		i := int(id - origin)
		if kept := words[i>>6]&(1<<(uint(i)&63)) != 0; kept == (pull || rescue) {
			t.Fatalf("step %d round %d seg %d: MaskInFlight kept the bit %v, in flight %v", step, round, id, kept, pull || rescue)
		}
	}
	if pad := r.size & 63; pad != 0 && (tr.bits[tr.tagWord(r.size-1)]|tr.bits[tr.backupWord(r.size-1)])>>pad != 0 {
		t.Fatalf("step %d: tag or backup bits set past slot %d", step, r.size)
	}
}

// nearBound returns, one time in four, a stamp within a second of top,
// the largest a tracker slot stores, and small otherwise: a slot that
// truncated its stamp would hand back a different time from the
// reference's.
func nearBound(rng *sim.RNG, small, top sim.Time) sim.Time {
	if rng.Intn(4) == 0 {
		return top - sim.Time(rng.Intn(1000))
	}
	return small
}

// TestTrackMatchesMapReference drives a Track and the map reference through
// the same random marks, withdrawals, arrivals, backups, backup handovers,
// window advances (small, and past a whole window), period turns and
// recyclings, comparing every query after every step.
func TestTrackMatchesMapReference(t *testing.T) {
	rng := sim.DeriveRNG(1, 0x7ac4)
	for trial := 0; trial < 40; trial++ {
		size := 600
		if trial%3 != 0 {
			size = 1 + rng.Intn(200) // single slots, partial tag words
		}
		lo := segment.ID(rng.Intn(5000))
		tr := OpenTrack(size, lo, Track{})
		ref := newRefTrack(size, lo)
		var heir Track // recycled by every handover
		round := rng.Intn(50)
		inWindow := func() segment.ID { return ref.lo + segment.ID(rng.Intn(size)) }
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(23); {
			case op < 5:
				id, exp, at := inWindow(), round+1+rng.Intn(3), nearBound(rng, sim.Time(rng.Intn(1000)), math.MaxInt32)
				tr.MarkGossip(id, exp, at)
				ref.pulls[id], ref.promised[id] = exp, at
			case op < 8:
				id, exp := inWindow(), round+1+rng.Intn(3)
				tr.MarkPrefetch(id, exp)
				ref.rescues[id], ref.tags[id] = exp, true
			case op < 9:
				id := inWindow()
				tr.MarkGossip(id, 0, 0) // withdrawn
				delete(ref.pulls, id)
			case op < 12:
				id := ref.lo + segment.ID(rng.Intn(size+40)) - 20 // may miss the window
				tr.Received(id)
				delete(ref.pulls, id)
				delete(ref.rescues, id)
			case op < 14:
				// Time zero is a recorded arrival, not the empty slot,
				// and the latest storable one is a millisecond short of
				// the bound, since the slot holds at+1.
				id, at := inWindow(), nearBound(rng, sim.Time(rng.Intn(1000)*rng.Intn(2)), math.MaxInt32-1)
				tr.NoteArrived(id, at)
				if _, ok := ref.arrived[id]; !ok {
					ref.arrived[id] = at
				}
			case op < 15:
				id := inWindow()
				tr.ClearTag(id)
				delete(ref.tags, id)
			case op < 18:
				round++
				ref.turn(round)
				to := ref.lo + segment.ID(rng.Intn(12))
				if rng.Intn(10) == 0 {
					to = ref.lo + segment.ID(size+rng.Intn(2*size+1)) // past everything
				}
				tr.AdvanceTo(to)
				ref.advanceTo(to)
			case op < 19:
				round++
				ref.turn(round)
			case op < 21:
				id := inWindow()
				tr.Back(id)
				ref.backups[id] = true
			case op < 22:
				// A graceful leaver hands its backup to an heir that
				// backs some segments up already, and the heir — on
				// the slices of the previous handover's heir — hands
				// the union back: the giver ends with nothing, the
				// taker with both sets.
				heir = OpenTrack(size, ref.lo, heir)
				for k := rng.Intn(8); k > 0; k-- {
					id := inWindow()
					heir.Back(id)
					ref.backups[id] = true
				}
				tr.HandBackupTo(&heir)
				for id := ref.lo - 1; id <= ref.lo+segment.ID(size); id++ {
					if tr.BackedUp(id) || heir.BackedUp(id) != ref.backups[id] {
						t.Fatalf("step %d seg %d: after the handover the giver backs up %v, the heir %v, reference %v",
							step, id, tr.BackedUp(id), heir.BackedUp(id), ref.backups[id])
					}
				}
				heir.HandBackupTo(&tr)
			default:
				// A departed peer's slices reopen for a joiner elsewhere,
				// and the comparison below finds no arrival, mark or tag
				// of its on any slot.
				lo = segment.ID(rng.Intn(5000))
				tr = OpenTrack(size, lo, tr)
				ref = newRefTrack(size, lo)
			}
			ref.compare(t, step, &tr, round)
		}
	}
}

// TestTrackWritersPanicOutsideWindow pins the writers' contract: marks,
// arrival notes and backups name in-window IDs by construction, and a
// backup handover joins trackers whose slots line up; anything else is a
// sequencing bug, not input.
func TestTrackWritersPanicOutsideWindow(t *testing.T) {
	tr := OpenTrack(10, 100, Track{})
	for _, tc := range []struct {
		name  string
		write func()
	}{
		{"MarkGossip below", func() { tr.MarkGossip(99, 5, 0) }},
		{"MarkPrefetch above", func() { tr.MarkPrefetch(110, 5) }},
		{"NoteArrived above", func() { tr.NoteArrived(200, 1) }},
		{"Back above", func() { tr.Back(110) }},
		{"HandBackupTo another lo", func() {
			to := OpenTrack(10, 101, Track{})
			tr.HandBackupTo(&to)
		}},
		{"HandBackupTo another span", func() {
			to := OpenTrack(11, 100, Track{})
			tr.HandBackupTo(&to)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.write()
		}()
	}
}

// TestTrackTimeBounds pins the int32 narrowing of a slot's millisecond
// stamps: the largest promised arrival and the largest first arrival a
// slot can hold come back intact, and one millisecond more panics with a
// message that names the bound instead of wrapping.
func TestTrackTimeBounds(t *testing.T) {
	tr := OpenTrack(10, 100, Track{})
	tr.MarkGossip(101, 5, math.MaxInt32)
	if at, ok := tr.GossipExpected(101, 0); !ok || at != math.MaxInt32 {
		t.Fatalf("GossipExpected %d %v, want %d true", at, ok, int64(math.MaxInt32))
	}
	tr.NoteArrived(102, math.MaxInt32-1)
	if got := tr.Arrived(102); got != math.MaxInt32-1 {
		t.Fatalf("Arrived %d, want %d", got, int64(math.MaxInt32-1))
	}
	for _, tc := range []struct {
		name  string
		write func()
	}{
		{"MarkGossip past the bound", func() { tr.MarkGossip(103, 5, math.MaxInt32+1) }},
		{"MarkGossip below the bound", func() { tr.MarkGossip(103, 5, math.MinInt32-1) }},
		{"NoteArrived at the bound", func() { tr.NoteArrived(104, math.MaxInt32) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "int32 bound 2147483647") {
					t.Errorf("%s: panic %q, want one naming the int32 bound", tc.name, msg)
				}
			}()
			tc.write()
		}()
	}
}

// TestTrackStoreHandsOutDisjointTrackers opens every tracker of a store
// and checks that each keeps its own facts: the stores' slices do not
// overlap, and OpenTrack reopens a store's tracker on the same span.
func TestTrackStoreHandsOutDisjointTrackers(t *testing.T) {
	const span, n = 75, 4
	store := NewTrackStore(span, n)
	tracks := make([]Track, n)
	for i := range tracks {
		tracks[i] = OpenTrack(span, segment.ID(100*i), store.Take())
		id := segment.ID(100*i + i)
		tracks[i].MarkGossip(id, 5, 1000)
		tracks[i].Back(id)
	}
	for i := range tracks {
		for j := range tracks {
			id := segment.ID(100*i + j)
			if got := tracks[i].BackedUp(id); got != (i == j) {
				t.Fatalf("tracker %d: segment %d backed up %v", i, id, got)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a store of 4 handed out a fifth tracker")
		}
	}()
	store.Take()
}
