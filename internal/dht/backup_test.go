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
	// Simulated graceful leave: per §4.3 the leaver hands its backup to
	// the counter-clockwise closest node n', which takes over the
	// leaver's arc, because arcs are [n, successor). Only the arcs are
	// under test, so the backups are plain sets.
	s := NewSpace(1024)
	net := buildNetwork(t, s, 100, 41)
	rng := sim.DeriveRNG(41, 7)
	leaver := net.IDs()[rng.Intn(net.Size())]
	handed := map[segment.ID]bool{}
	succ, _ := net.TrueSuccessor(leaver)
	for id := segment.ID(0); id < 200; id++ {
		if Responsible(s, leaver, succ, id, 4) {
			handed[id] = true
		}
	}
	// Predecessor = owner of key leaver-1 (counter-clockwise closest).
	pred, ok := net.Owner(s.Wrap(int(leaver) - 1))
	if !ok || pred == leaver {
		// leaver could own its own predecessor key only in a 1-node net.
		t.Fatal("no predecessor")
	}
	net.Leave(leaver)
	// After the leave, the predecessor's arc covers the leaver's old arc:
	// everything the leaver was responsible for, the predecessor now is.
	newSucc, _ := net.TrueSuccessor(pred)
	for id := segment.ID(0); id < 200; id++ {
		if handed[id] && !Responsible(s, pred, newSucc, id, 4) {
			// The handed-over segment must now be in pred's arc unless the
			// hash key lands exactly on another node's arc (impossible:
			// pred's new arc is the union of its old arc and leaver's).
			t.Fatalf("segment %d orphaned after handover", id)
		}
	}
}
