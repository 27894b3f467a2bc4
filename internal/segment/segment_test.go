package segment

import (
	"testing"
	"testing/quick"

	"continustreaming/internal/sim"
)

func TestDefaultStream(t *testing.T) {
	s := DefaultStream()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Rate != 10 || s.BitsPerSegment != 30*1024 {
		t.Fatalf("unexpected defaults: %+v", s)
	}
	if s.Interval() != 100*sim.Millisecond {
		t.Fatalf("interval = %v", s.Interval())
	}
}

func TestValidateRejectsBadStreams(t *testing.T) {
	for _, s := range []Stream{{Rate: 0, BitsPerSegment: 1}, {Rate: 1, BitsPerSegment: 0}, {Rate: -1, BitsPerSegment: -1}} {
		if err := s.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", s)
		}
	}
}

func TestCountIn(t *testing.T) {
	s := DefaultStream()
	cases := []struct {
		from, to sim.Time
		want     int
	}{
		{0, sim.Second, 10},
		{0, 0, 0},
		{sim.Second, 0, 0},
		{0, 50 * sim.Millisecond, 1}, // segment 0 at t=0
		{50, 150, 1},                 // segment 1 at t=100
		{100, 200, 1},                // [100,200) holds segment 1 only
		{0, 30 * sim.Second, 300},
	}
	for _, c := range cases {
		if got := s.CountIn(c.from, c.to); got != c.want {
			t.Fatalf("CountIn(%v,%v) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestCountInAdditiveProperty(t *testing.T) {
	// Property: counting over [a,b) + [b,c) equals counting over [a,c).
	s := DefaultStream()
	f := func(a, b, c uint16) bool {
		ta, tb, tc := sim.Time(a), sim.Time(b), sim.Time(c)
		if ta > tb {
			ta, tb = tb, ta
		}
		if tb > tc {
			tb, tc = tc, tb
		}
		if ta > tb {
			ta, tb = tb, ta
		}
		return s.CountIn(ta, tb)+s.CountIn(tb, tc) == s.CountIn(ta, tc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlaybackWindow(t *testing.T) {
	// The segments a node at playback position 120 consumes in one
	// period: those emitted in the period starting at 120's emission.
	s := DefaultStream()
	w := Window{Lo: 120, Hi: 120 + ID(s.CountIn(s.GeneratedAt(120), s.GeneratedAt(120)+sim.Second))}
	if w.Lo != 120 || w.Hi != 130 {
		t.Fatalf("PlaybackWindow = %v", w)
	}
	if w.Len() != 10 || !w.Contains(125) || w.Contains(130) || w.Contains(119) {
		t.Fatalf("window predicate failure: %v", w)
	}
}

func TestWindowOps(t *testing.T) {
	a := Window{Lo: 0, Hi: 10}
	b := Window{Lo: 5, Hi: 15}
	got := a.Intersect(b)
	if got.Lo != 5 || got.Hi != 10 {
		t.Fatalf("Intersect = %v", got)
	}
	empty := a.Intersect(Window{Lo: 20, Hi: 30})
	if empty.Len() != 0 || empty.Contains(empty.Lo) {
		t.Fatalf("disjoint intersect = %v", empty)
	}
	if (Window{Lo: 3, Hi: 3}).Len() != 0 {
		t.Fatal("degenerate window should be empty")
	}
	if s := (Window{Lo: 1, Hi: 4}).String(); s != "[1,4)" {
		t.Fatalf("String = %q", s)
	}
}

func TestIDString(t *testing.T) {
	if got := ID(7).String(); got != "seg#7" {
		t.Fatalf("ID.String = %q", got)
	}
}
