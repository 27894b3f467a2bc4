package livenet

import (
	"testing"
	"time"
)

// BenchmarkPeerPeriod prices the livenet's period work: one op is one
// scheduling period of a warmed 400-peer mesh on the in-process transport
// — the four phase sweeps over every peer plus the message handling they
// set off, all on the benchmark's goroutine (one core), ticked back to
// back with no ticker in between. ns/op over 401 is the per-peer period
// cost the 50 ms budget of a live session has to cover; allocs/op over 401
// stays near periodAllocBound plus the push forwards.
func BenchmarkPeerPeriod(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Peers, cfg.Period = 400, 50*time.Millisecond
	s := newSession(cfg)
	period := 0
	for ; period < 3*cfg.PlaybackLagPeriods; period++ {
		s.tick(period)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.tick(period)
		period++
	}
	b.StopTimer()
	if d := s.nw.dropped; d != 0 {
		b.Fatalf("%d messages dropped into saturated inboxes", d)
	}
}
