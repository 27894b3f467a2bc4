package dht

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewTableEmpty(t *testing.T) {
	s := NewSpace(64)
	tb := NewTable(s, 10)
	if tb.Self() != 10 || tb.Filled() != 0 || len(tb.Peers()) != 0 {
		t.Fatalf("fresh table: self=%d filled=%d", tb.Self(), tb.Filled())
	}
	if _, ok := tb.Successor(); ok {
		t.Fatal("empty table has a successor")
	}
	if _, ok := tb.NextHop(33); ok {
		t.Fatal("empty table has a next hop")
	}
}

// TestNewSpaceCapsInlineLevels pins the widest space a Table can hold:
// its levels are int32 IDs, so 2^31 slots (31 levels) is accepted and
// 2^32 panics rather than storing IDs that wrap.
func TestNewSpaceCapsInlineLevels(t *testing.T) {
	if bits.UintSize < 64 {
		t.Skip("a 2^31 space needs 64-bit ints")
	}
	widest := 1
	widest <<= maxLevels
	if s := NewSpace(widest); s.Levels() != maxLevels {
		t.Fatalf("NewSpace(2^%d).Levels() = %d", maxLevels, s.Levels())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewSpace(2^%d) did not panic", maxLevels+1)
		}
	}()
	NewSpace(widest << 1)
}

// TestWidestTableFillsAndRoutesTopLevel fills every level of a table on
// the widest space — from the arc's last ID, the one an int32 slot holds
// only just — and routes through the top level to both ends of its arc,
// which is half the ring.
func TestWidestTableFillsAndRoutesTopLevel(t *testing.T) {
	if bits.UintSize < 64 {
		t.Skip("a 2^31 space needs 64-bit ints")
	}
	widest := 1
	widest <<= maxLevels
	s := NewSpace(widest)
	self := ID(5)
	tb := NewTable(s, self)
	for level := 1; level <= maxLevels; level++ {
		last := s.Wrap(int(self) + 1<<level - 1)
		if !tb.Consider(last) || tb.Peer(level) != last {
			t.Fatalf("level %d: Consider(%d) left Peer = %d", level, last, tb.Peer(level))
		}
	}
	if tb.Filled() != maxLevels || len(tb.Peers()) != maxLevels {
		t.Fatalf("filled = %d, peers = %d, want %d", tb.Filled(), len(tb.Peers()), maxLevels)
	}
	top := tb.Peer(maxLevels) // self + 2^31 - 1 wraps to self - 1
	if top != self-1 {
		t.Fatalf("top level peer = %d, want %d", top, self-1)
	}
	lo, _ := s.LevelArc(self, maxLevels)
	// The top arc's first ID is past every lower level's peer, so the hop
	// toward it is the level below; its last ID is the top peer itself.
	if hop, ok := tb.NextHop(lo); !ok || hop != tb.Peer(maxLevels-1) {
		t.Fatalf("NextHop(%d) = %d,%v, want level %d's %d", lo, hop, ok, maxLevels-1, tb.Peer(maxLevels-1))
	}
	if hop, ok := tb.NextHop(top); !ok || hop != top {
		t.Fatalf("NextHop(%d) = %d,%v, want the top peer", top, hop, ok)
	}
	if !tb.Evict(top) || tb.Peer(maxLevels) != Vacant || tb.Filled() != maxLevels-1 {
		t.Fatalf("evicting the top peer left Peer = %d, filled = %d", tb.Peer(maxLevels), tb.Filled())
	}
}

func TestTableConsiderPlacesAtCorrectLevel(t *testing.T) {
	s := NewSpace(64)
	tb := NewTable(s, 0)
	// Level 1 arc is [1,2), level 2 [2,4), level 3 [4,8)...
	if !tb.Consider(1) || tb.Peer(1) != 1 {
		t.Fatal("level 1")
	}
	if !tb.Consider(3) || tb.Peer(2) != 3 {
		t.Fatal("level 2")
	}
	if !tb.Consider(5) || tb.Peer(3) != 5 {
		t.Fatal("level 3")
	}
	// Renewal: a newer candidate in the same arc replaces the old one.
	if !tb.Consider(6) || tb.Peer(3) != 6 {
		t.Fatal("renewal did not replace level 3")
	}
	// Self and out-of-space are rejected.
	if tb.Consider(0) || tb.Consider(-1) || tb.Consider(64) {
		t.Fatal("accepted invalid peer")
	}
	if tb.Filled() != 3 {
		t.Fatalf("filled = %d", tb.Filled())
	}
}

func TestTableConsiderWrappedArcs(t *testing.T) {
	s := NewSpace(16)
	tb := NewTable(s, 14)
	// Level 1 arc of node 14 is [15,16) = {15}; level 2 is [0,2) wrapped.
	if !tb.Consider(15) || tb.Peer(1) != 15 {
		t.Fatal("wrapped level 1")
	}
	if !tb.Consider(1) || tb.Peer(2) != 1 {
		t.Fatal("wrapped level 2")
	}
}

func TestTableEvict(t *testing.T) {
	s := NewSpace(64)
	tb := NewTable(s, 0)
	tb.Consider(5)
	if !tb.Evict(5) || tb.Filled() != 0 {
		t.Fatal("evict present peer")
	}
	if tb.Evict(5) || tb.Evict(40) {
		t.Fatal("evict absent peer reported change")
	}
}

func TestTableSuccessor(t *testing.T) {
	s := NewSpace(64)
	tb := NewTable(s, 60)
	tb.Consider(2)  // clockwise distance 6
	tb.Consider(61) // clockwise distance 1
	tb.Consider(30) // clockwise distance 34
	succ, ok := tb.Successor()
	if !ok || succ != 61 {
		t.Fatalf("Successor = %d,%v", succ, ok)
	}
}

func TestNextHopNeverOvershoots(t *testing.T) {
	s := NewSpace(64)
	tb := NewTable(s, 0)
	for _, p := range []ID{1, 2, 5, 9, 17, 33} {
		tb.Consider(p)
	}
	// Target 20: best non-overshooting peer is 17.
	hop, ok := tb.NextHop(20)
	if !ok || hop != 17 {
		t.Fatalf("NextHop(20) = %d,%v", hop, ok)
	}
	// Target 4: peer 2 is the closest without passing 4 (5 would overshoot).
	hop, ok = tb.NextHop(4)
	if !ok || hop != 2 {
		t.Fatalf("NextHop(4) = %d,%v", hop, ok)
	}
	// Target 0 is self; every peer has wrapped (worse) distance.
	if _, ok := tb.NextHop(0); ok {
		t.Fatal("NextHop(self) found an improvement")
	}
}

// Property: NextHop always strictly reduces the clockwise distance to the
// target, which is the invariant the appendix's termination proof rests on.
func TestNextHopMonotoneQuick(t *testing.T) {
	s := NewSpace(256)
	f := func(selfRaw uint8, peersRaw []uint8, targetRaw uint8) bool {
		self := ID(selfRaw)
		tb := NewTable(s, self)
		for _, p := range peersRaw {
			tb.Consider(ID(p))
		}
		target := ID(targetRaw)
		hop, ok := tb.NextHop(target)
		if !ok {
			return true
		}
		return s.Clockwise(hop, target) < s.Clockwise(self, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
