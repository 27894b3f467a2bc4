package buffer

import (
	"math/bits"
	"testing"
	"testing/quick"

	"continustreaming/internal/segment"
)

func TestNewBuffer(t *testing.T) {
	b := New(600, 0)
	if b.Size() != 600 || b.Lo() != 0 || b.Hi() != 600 || b.Held() != 0 {
		t.Fatalf("fresh buffer: size=%d lo=%d hi=%d held=%d", b.Size(), b.Lo(), b.Hi(), b.Held())
	}
	if w := b.Window(); w.Lo != 0 || w.Hi != 600 {
		t.Fatalf("window = %v", w)
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 0) did not panic")
		}
	}()
	New(0, 0)
}

func TestNewClampsNegativeLo(t *testing.T) {
	b := New(10, -5)
	if b.Lo() != 0 {
		t.Fatalf("Lo = %d, want 0", b.Lo())
	}
}

func TestInsertAndHas(t *testing.T) {
	b := New(10, 100)
	if !b.Insert(105) {
		t.Fatal("Insert(105) rejected")
	}
	if b.Insert(105) {
		t.Fatal("duplicate Insert reported newly stored")
	}
	if !b.Has(105) || b.Has(104) {
		t.Fatal("Has mismatch after insert")
	}
	if b.Insert(99) || b.Insert(110) {
		t.Fatal("out-of-window insert accepted")
	}
	if b.Has(99) || b.Has(110) {
		t.Fatal("out-of-window Has true")
	}
	if b.Held() != 1 {
		t.Fatalf("Held = %d", b.Held())
	}
}

func TestAdvanceToEvicts(t *testing.T) {
	b := New(10, 0)
	for id := segment.ID(0); id < 10; id++ {
		b.Insert(id)
	}
	evicted := b.AdvanceTo(4)
	if evicted != 4 {
		t.Fatalf("evicted = %d, want 4", evicted)
	}
	if b.Lo() != 4 || b.Hi() != 14 || b.Held() != 6 {
		t.Fatalf("after advance: lo=%d hi=%d held=%d", b.Lo(), b.Hi(), b.Held())
	}
	for id := segment.ID(4); id < 10; id++ {
		if !b.Has(id) {
			t.Fatalf("lost segment %d on advance", id)
		}
	}
	if !b.Insert(12) {
		t.Fatal("cannot insert into newly exposed slot")
	}
	// Backwards advance is a no-op.
	if b.AdvanceTo(2) != 0 || b.Lo() != 4 {
		t.Fatal("backwards AdvanceTo moved window")
	}
}

func TestAdvancePastEverything(t *testing.T) {
	b := New(10, 0)
	for id := segment.ID(0); id < 10; id++ {
		b.Insert(id)
	}
	if evicted := b.AdvanceTo(100); evicted != 10 {
		t.Fatalf("evicted = %d, want 10", evicted)
	}
	if b.Held() != 0 || b.Lo() != 100 {
		t.Fatalf("held=%d lo=%d", b.Held(), b.Lo())
	}
}

func TestPositionFromTail(t *testing.T) {
	b := New(600, 0)
	b.Insert(0)
	b.Insert(599)
	// The buffer map carries p_ij. Oldest segment: about to be evicted,
	// position = B.
	m := b.Snapshot()
	if p, ok := m.PositionFromTail(0); !ok || p != 600 {
		t.Fatalf("PositionFromTail(0) = %d,%v", p, ok)
	}
	// Newest slot: position 1.
	if p, ok := m.PositionFromTail(599); !ok || p != 1 {
		t.Fatalf("PositionFromTail(599) = %d,%v", p, ok)
	}
	if _, ok := m.PositionFromTail(300); ok {
		t.Fatal("position for absent segment")
	}
}

func TestMissingInAndCounts(t *testing.T) {
	b := New(10, 0)
	for _, id := range []segment.ID{1, 3, 5} {
		b.Insert(id)
	}
	miss := b.AppendMissingIn(nil, segment.Window{Lo: 0, Hi: 6})
	want := []segment.ID{0, 2, 4}
	if len(miss) != len(want) {
		t.Fatalf("AppendMissingIn = %v", miss)
	}
	for i := range want {
		if miss[i] != want[i] {
			t.Fatalf("AppendMissingIn = %v, want %v", miss, want)
		}
	}
	if b.HasAll(segment.Window{Lo: 1, Hi: 2}) != true {
		t.Fatal("HasAll single present segment")
	}
	if b.HasAll(segment.Window{Lo: 1, Hi: 4}) {
		t.Fatal("HasAll with a hole")
	}
	// Window beyond buffer counts as missing.
	if b.HasAll(segment.Window{Lo: 8, Hi: 12}) {
		t.Fatal("HasAll beyond window")
	}
}

// advertised counts the segments a map advertises.
func advertised(m Map) int {
	n := 0
	for _, w := range m.Bits {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestSnapshotMatchesBuffer(t *testing.T) {
	b := New(130, 1000) // straddles two bitmap words
	ids := []segment.ID{1000, 1001, 1063, 1064, 1127, 1129}
	for _, id := range ids {
		b.Insert(id)
	}
	m := b.Snapshot()
	if got := advertised(m); got != len(ids) {
		t.Fatalf("snapshot count = %d", got)
	}
	for id := segment.ID(1000); id < 1130; id++ {
		if m.Has(id) != b.Has(id) {
			t.Fatalf("snapshot mismatch at %d", id)
		}
	}
	if p, ok := m.PositionFromTail(1000); !ok || p != 130 {
		t.Fatalf("map PositionFromTail = %d,%v", p, ok)
	}
}

func TestWireBits(t *testing.T) {
	// The paper's 620-bit buffer map: 20-bit head + 600-bit bitmap.
	if got := WireBits(600); got != 620 {
		t.Fatalf("WireBits(600) = %d", got)
	}
}

func TestMapMarshalRoundTrip(t *testing.T) {
	b := New(600, 12345)
	for id := segment.ID(12345); id < 12945; id += 7 {
		b.Insert(id)
	}
	m := b.Snapshot()
	data := m.AppendMarshal(nil)
	got, err := UnmarshalMap(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lo != m.Lo || got.Size != m.Size || advertised(got) != advertised(m) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got.Lo, m.Lo)
	}
	for id := segment.ID(12345); id < 12945; id++ {
		if got.Has(id) != m.Has(id) {
			t.Fatalf("bit mismatch at %d", id)
		}
	}
}

func TestUnmarshalMapRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalMap(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := UnmarshalMap(make([]byte, 5)); err == nil {
		t.Fatal("short accepted")
	}
	// Valid header but truncated bitmap.
	m := New(600, 0).Snapshot()
	data := m.AppendMarshal(nil)
	if _, err := UnmarshalMap(data[:len(data)-8]); err == nil {
		t.Fatal("truncated accepted")
	}
}

// Property: Insert/AdvanceTo never corrupt the held counter, and Has agrees
// with AppendMissingIn for arbitrary operation sequences.
func TestBufferInvariantsQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		b := New(64, 0)
		present := map[segment.ID]bool{}
		lo := segment.ID(0)
		for _, op := range ops {
			id := segment.ID(op % 256)
			switch op % 3 {
			case 0, 1: // insert
				ok := b.Insert(id)
				inWindow := id >= lo && id < lo+64
				if ok != (inWindow && !present[id]) {
					return false
				}
				if ok {
					present[id] = true
				}
			case 2: // advance by a small amount
				nl := lo + segment.ID(op%5)
				b.AdvanceTo(nl)
				for ; lo < nl; lo++ {
					delete(present, lo)
				}
			}
			if b.Held() != len(present) {
				return false
			}
		}
		for id := lo; id < lo+64; id++ {
			if b.Has(id) != present[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot round-trips through the wire format bit-for-bit.
func TestSnapshotRoundTripQuick(t *testing.T) {
	f := func(seedIDs []uint16, loRaw uint16) bool {
		lo := segment.ID(loRaw)
		b := New(100, lo)
		for _, raw := range seedIDs {
			b.Insert(lo + segment.ID(raw%100))
		}
		m := b.Snapshot()
		back, err := UnmarshalMap(m.AppendMarshal(nil))
		if err != nil {
			return false
		}
		for id := lo; id < lo+100; id++ {
			if back.Has(id) != b.Has(id) {
				return false
			}
		}
		return advertised(back) == b.Held()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refBuffer is a trivially correct bool-slice model of the sliding window,
// used to check the word-level implementation over random op sequences.
type refBuffer struct {
	size int
	lo   segment.ID
	have []bool
}

func (r *refBuffer) insert(id segment.ID) bool {
	if id < r.lo || id >= r.lo+segment.ID(r.size) {
		return false
	}
	if r.have[id-r.lo] {
		return false
	}
	r.have[id-r.lo] = true
	return true
}

func (r *refBuffer) advanceTo(lo segment.ID) int {
	if lo <= r.lo {
		return 0
	}
	shift := int(lo - r.lo)
	evicted := 0
	next := make([]bool, r.size)
	for i, ok := range r.have {
		if !ok {
			continue
		}
		if i < shift {
			evicted++
		} else {
			next[i-shift] = true
		}
	}
	r.have = next
	r.lo = lo
	return evicted
}

func TestBufferMatchesReferenceModel(t *testing.T) {
	const size = 130 // spans three words with a ragged top word
	rng := newTestRand(42)
	b := New(size, 0)
	ref := &refBuffer{size: size, have: make([]bool, size)}
	for step := 0; step < 4000; step++ {
		switch rng.next() % 4 {
		case 0, 1, 2:
			id := ref.lo + segment.ID(rng.next()%uint64(size+20)) - 10
			got, want := b.Insert(id), ref.insert(id)
			if got != want {
				t.Fatalf("step %d: Insert(%d) = %v, want %v", step, id, got, want)
			}
		case 3:
			lo := ref.lo + segment.ID(rng.next()%150) - 5
			got, want := b.AdvanceTo(lo), ref.advanceTo(lo)
			if got != want {
				t.Fatalf("step %d: AdvanceTo(%d) evicted %d, want %d", step, lo, got, want)
			}
		}
		if b.Lo() != ref.lo {
			t.Fatalf("step %d: lo %d vs ref %d", step, b.Lo(), ref.lo)
		}
		held := 0
		for i, ok := range ref.have {
			id := ref.lo + segment.ID(i)
			if ok {
				held++
			}
			if b.Has(id) != ok {
				t.Fatalf("step %d: Has(%d) = %v, want %v", step, id, b.Has(id), ok)
			}
		}
		if b.Held() != held {
			t.Fatalf("step %d: Held = %d, want %d", step, b.Held(), held)
		}
		w := segment.Window{Lo: ref.lo + 17, Hi: ref.lo + 91}
		wantCount := 0
		for id := w.Lo; id < w.Hi; id++ {
			if ref.have[id-ref.lo] {
				wantCount++
			}
		}
		if got, want := b.HasAll(w), wantCount == int(w.Hi-w.Lo); got != want {
			t.Fatalf("step %d: HasAll = %v, want %v", step, got, want)
		}
	}
}

// newTestRand is a tiny splitmix64 so the model test does not depend on
// math/rand ordering across Go versions.
type testRand struct{ s uint64 }

func newTestRand(seed uint64) *testRand { return &testRand{s: seed} }

func (r *testRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
