package segment

import (
	"testing"

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

func TestPlaybackWindow(t *testing.T) {
	// The segments a node at playback position 120 consumes in one
	// period: the Rate segments emitted in the second from 120's emission.
	s := DefaultStream()
	w := Window{Lo: 120, Hi: 120 + ID(s.Rate)}
	if s.GeneratedAt(w.Hi)-s.GeneratedAt(w.Lo) != sim.Second {
		t.Fatalf("PlaybackWindow %v spans %v of emission", w, s.GeneratedAt(w.Hi)-s.GeneratedAt(w.Lo))
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
