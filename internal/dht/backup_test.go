package dht

import (
	"testing"
	"testing/quick"

	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

func TestHashKeyInSpace(t *testing.T) {
	s := NewSpace(8192)
	for id := segment.ID(0); id < 1000; id++ {
		for i := 1; i <= 4; i++ {
			key := HashKey(s, id, i)
			if key < 0 || int(key) >= s.N() {
				t.Fatalf("HashKey(%d,%d) = %d out of space", id, i, key)
			}
		}
	}
}

func TestHashKeyDispersesAdjacentIDs(t *testing.T) {
	// The paper multiplies id by the replica index precisely so adjacent
	// ids do not aggregate on one node. Check adjacent ids land on distinct
	// keys nearly always.
	s := NewSpace(8192)
	same := 0
	const n = 2000
	for id := segment.ID(0); id < n; id++ {
		if HashKey(s, id, 1) == HashKey(s, id+1, 1) {
			same++
		}
	}
	if same > n/100 {
		t.Fatalf("%d of %d adjacent ids collide", same, n)
	}
}

func TestBackupKeysLength(t *testing.T) {
	s := NewSpace(1024)
	keys := BackupKeys(s, 77, 4)
	if len(keys) != 4 {
		t.Fatalf("len = %d", len(keys))
	}
	for i, k := range keys {
		if k != HashKey(s, 77, i+1) {
			t.Fatalf("key %d mismatch", i)
		}
	}
}

func TestResponsibleMatchesKeys(t *testing.T) {
	s := NewSpace(256)
	f := func(selfRaw, succRaw uint8, idRaw uint16) bool {
		self := ID(selfRaw)
		succ := ID(succRaw)
		id := segment.ID(idRaw)
		want := false
		for i := 1; i <= 4; i++ {
			if s.InArc(HashKey(s, id, i), self, succ) {
				want = true
			}
		}
		return Responsible(s, self, succ, id, 4) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBackupCoverageOnPopulatedRing(t *testing.T) {
	// On a populated ring where every node applies the Responsible rule
	// with its true successor, every segment is claimed by exactly the
	// owners of its k hashed keys — so by at most k and at least 1 node.
	s := NewSpace(8192)
	net := buildNetwork(t, s, 1000, 21)
	const k = 4
	for id := segment.ID(0); id < 500; id++ {
		claimers := 0
		for _, n := range net.IDs() {
			succ, ok := net.TrueSuccessor(n)
			if !ok {
				t.Fatal("no successor")
			}
			if Responsible(s, n, succ, id, k) {
				claimers++
			}
		}
		if claimers < 1 || claimers > k {
			t.Fatalf("segment %d claimed by %d nodes, want 1..%d", id, claimers, k)
		}
	}
}

func TestStoreBasics(t *testing.T) {
	st := NewStore()
	if st.Has(1) || st.Len() != 0 {
		t.Fatal("fresh store not empty")
	}
	st.Put(1)
	st.Put(2)
	st.Put(2)
	if !st.Has(1) || !st.Has(2) || st.Len() != 2 {
		t.Fatalf("store state wrong: len=%d", st.Len())
	}
	if n := st.PruneBelow(2); n != 1 || st.Has(1) || !st.Has(2) {
		t.Fatalf("PruneBelow removed %d", n)
	}
}

func TestStoreDrainMerge(t *testing.T) {
	a := NewStore()
	for id := segment.ID(0); id < 10; id++ {
		a.Put(id)
	}
	moved := a.Drain()
	if a.Len() != 0 || len(moved) != 10 {
		t.Fatalf("drain left %d, moved %d", a.Len(), len(moved))
	}
	b := NewStore()
	b.Put(100)
	b.Merge(moved)
	if b.Len() != 11 || !b.Has(5) || !b.Has(100) {
		t.Fatalf("merge produced %d entries", b.Len())
	}
}

// TestStoreMatchesMapReference drives a seeded random mix of every Store
// operation against a plain map: the sorted slice must answer exactly as
// a set does, and hand its entries over in ascending order.
func TestStoreMatchesMapReference(t *testing.T) {
	rng := sim.DeriveRNG(22, 0x5702e)
	st := NewStore()
	ref := map[segment.ID]bool{}
	randID := func() segment.ID { return segment.ID(rng.Intn(64)) }
	for op := 0; op < 20000; op++ {
		switch rng.Intn(7) {
		case 0, 1, 2: // Put, duplicates included
			id := randID()
			st.Put(id)
			ref[id] = true
		case 3: // Merge an unsorted batch with repeats
			ids := make([]segment.ID, rng.Intn(6))
			for i := range ids {
				ids[i] = randID()
				ref[ids[i]] = true
			}
			st.Merge(ids)
		case 4, 5: // PruneBelow returns the reference's count
			floor := randID()
			want := 0
			for id := segment.ID(0); id < floor; id++ {
				if ref[id] {
					delete(ref, id)
					want++
				}
			}
			if got := st.PruneBelow(floor); got != want {
				t.Fatalf("op %d: PruneBelow(%d) = %d, reference removed %d", op, floor, got, want)
			}
		case 6: // now and then, Drain: ascending, complete, empties the store
			if rng.Intn(8) == 0 {
				got := st.Drain()
				if len(got) != len(ref) || st.Len() != 0 {
					t.Fatalf("op %d: Drain returned %d of %d entries and left %d", op, len(got), len(ref), st.Len())
				}
				for i, id := range got {
					if !ref[id] || (i > 0 && got[i-1] >= id) {
						t.Fatalf("op %d: Drain = %v, not the reference set ascending", op, got)
					}
				}
				clear(ref)
			}
		}
		if st.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, reference holds %d", op, st.Len(), len(ref))
		}
		for id := segment.ID(0); id < 64; id++ {
			if st.Has(id) != ref[id] {
				t.Fatalf("op %d: Has(%d) = %v, reference %v", op, id, st.Has(id), ref[id])
			}
		}
	}
}

func TestExpectedReplicationFactor(t *testing.T) {
	// With k=4 hashed keys, the expected number of distinct backup owners
	// per segment approaches 4 on a large ring (collisions are rare).
	s := NewSpace(8192)
	net := buildNetwork(t, s, 2000, 31)
	total := 0
	const segs = 300
	for id := segment.ID(0); id < segs; id++ {
		owners := map[ID]bool{}
		for _, key := range BackupKeys(s, id, 4) {
			o, ok := net.Owner(key)
			if !ok {
				t.Fatal("no owner")
			}
			owners[o] = true
		}
		total += len(owners)
	}
	avg := float64(total) / segs
	if avg < 3.5 || avg > 4.0 {
		t.Fatalf("avg distinct backup owners = %.2f, want near 4", avg)
	}
}

func TestGracefulHandoverPreservesResponsibility(t *testing.T) {
	// Simulated graceful leave: node hands its store to its counter-
	// clockwise neighbour... per §4.3 the *predecessor* n' (counter-
	// clockwise closest) takes over the leaving node's arc, because arcs
	// are [n, successor).
	s := NewSpace(1024)
	net := buildNetwork(t, s, 100, 41)
	rng := sim.DeriveRNG(41, 7)
	leaver := net.IDs()[rng.Intn(net.Size())]
	store := NewStore()
	succ, _ := net.TrueSuccessor(leaver)
	for id := segment.ID(0); id < 200; id++ {
		if Responsible(s, leaver, succ, id, 4) {
			store.Put(id)
		}
	}
	// Predecessor = owner of key leaver-1 (counter-clockwise closest).
	pred, ok := net.Owner(s.Wrap(int(leaver) - 1))
	if !ok || pred == leaver {
		// leaver could own its own predecessor key only in a 1-node net.
		t.Fatal("no predecessor")
	}
	predStore := NewStore()
	predStore.Merge(store.Drain())
	net.Leave(leaver)
	// After the leave, the predecessor's arc covers the leaver's old arc:
	// everything the leaver was responsible for, the predecessor now is.
	newSucc, _ := net.TrueSuccessor(pred)
	for id := segment.ID(0); id < 200; id++ {
		if predStore.Has(id) && !Responsible(s, pred, newSucc, id, 4) {
			// The handed-over segment must now be in pred's arc unless the
			// hash key lands exactly on another node's arc (impossible:
			// pred's new arc is the union of its old arc and leaver's).
			t.Fatalf("segment %d orphaned after handover", id)
		}
	}
}
