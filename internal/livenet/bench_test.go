package livenet

import (
	"runtime"
	"testing"
	"time"

	"continustreaming/internal/buffer"
	"continustreaming/internal/segment"
)

// warmMesh is the 400-peer in-process mesh BenchmarkPeerPeriod and
// TestPeerPeriodCeiling price: the default configuration at a 50 ms
// period, ticked back to back past three playback delays so every peer's
// scratch has reached its steady-state size. It returns the session and
// the next period to tick.
func warmMesh() (*session, int) {
	cfg := DefaultConfig()
	cfg.Peers, cfg.Period = 400, 50*time.Millisecond
	s := newSession(cfg)
	period := 0
	for ; period < 3*cfg.PlaybackLagPeriods; period++ {
		s.tick(period)
	}
	return s, period
}

// BenchmarkPeerPeriod prices the livenet's period work: one op is one
// scheduling period of a warmed 400-peer mesh on the in-process transport
// — the four phase sweeps over every peer plus the message handling they
// set off, all on the benchmark's goroutine (one core), ticked back to
// back with no ticker in between. ns/op over 401 is the per-peer period
// cost the 50 ms budget of a live session has to cover; allocs/op over 401
// stays near periodAllocBound plus the push forwards.
func BenchmarkPeerPeriod(b *testing.B) {
	s, period := warmMesh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.tick(period)
		period++
	}
}

// The allocation side of BenchmarkPeerPeriod, held as a ceiling: the
// announced snapshots and gossip arenas every peer hands the transport,
// the push forwards' one-segment lists, and what churn-free repair and the
// source's fresh-segment list cost — about 1 300 allocations and 113 KB a
// period when the ceiling was set.
const (
	peerPeriodAllocCeiling = 1400
	peerPeriodBytesCeiling = 120 << 10
)

// TestPeerPeriodCeiling holds a warmed 400-peer period (BenchmarkPeerPeriod's
// op) to peerPeriodAllocCeiling allocations and peerPeriodBytesCeiling
// bytes, averaged over a run of periods, and logs the measured values. The
// first periods past warmMesh still grow a few scratch buffers, about 5 KB
// a period, so the run starts after them, where the benchmark's long runs
// average.
func TestPeerPeriodCeiling(t *testing.T) {
	s, period := warmMesh()
	const periods = 20
	for end := period + periods; period < end; period++ {
		s.tick(period)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for end := period + periods; period < end; period++ {
		s.tick(period)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / periods
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / periods
	t.Logf("a warmed 400-peer period: %.0f allocs, %.1f KB (ceilings %d, %d KB)",
		allocs, bytes/1024, peerPeriodAllocCeiling, peerPeriodBytesCeiling>>10)
	if allocs > peerPeriodAllocCeiling || bytes > peerPeriodBytesCeiling {
		t.Errorf("a warmed 400-peer period allocates %.0f times and %.1f KB, ceilings %d and %d KB",
			allocs, bytes/1024, peerPeriodAllocCeiling, peerPeriodBytesCeiling>>10)
	}
}

// BenchmarkUDPSendWait prices the socket path one frame at a time: one op
// is one data frame that a loopback transport encodes and sends and a
// second one receives through its wait, decodes and hands over — the
// per-datagram cost under every socket node's period, without the shaper.
func BenchmarkUDPSendWait(b *testing.B) {
	tx, rx := openUDP(b, 1), openUDP(b, 2)
	if err := tx.Learn(2, rx.LocalAddr()); err != nil {
		b.Fatal(err)
	}
	m := Message{From: 1, Kind: msgData, Seg: 7, Period: 3}
	handed := 0
	deliver := func(int, *Message) { handed++ }
	until := time.Now().Add(time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tx.Send(2, &m) {
			b.Fatal("send failed")
		}
		tx.flush()
		if !rx.receive(until) {
			b.Fatal("the frame never arrived")
		}
		rx.handOver(deliver)
	}
	if handed != b.N {
		b.Fatalf("%d of %d frames handed over", handed, b.N)
	}
}

// BenchmarkSendFlush prices a socket node's egress, the side
// BenchmarkUDPSendWait pays per frame: one op is one wake-up's frames to
// one peer — a map announcement with gossip and a request — packed into
// one datagram and written, without the shaper. Nothing reads the
// receiving socket, so the kernel drops what its full buffer cannot hold;
// the cost measured is the encode, the packing and the write. It
// allocates nothing (TestSendFlushAllocations).
func BenchmarkSendFlush(b *testing.B) {
	tx, rx := openUDP(b, 1), openUDP(b, 2)
	if err := tx.Learn(2, rx.LocalAddr()); err != nil {
		b.Fatal(err)
	}
	buf := buffer.New(600, 0)
	for s := segment.ID(0); s < 300; s += 3 {
		buf.Insert(s)
	}
	snap := buf.Snapshot()
	announce := Message{From: 1, Kind: msgMap, Map: &snap, Gossip: []int{2, 1}, Period: 3}
	request := Message{From: 1, Kind: msgRequest, Seg: 9, Deadline: 40, Period: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tx.Send(2, &announce) || !tx.Send(2, &request) {
			b.Fatal("send failed")
		}
		tx.flush()
	}
	if tx.datagrams != int64(b.N) || tx.refused != 0 {
		b.Fatalf("%d datagrams for %d ops, %d refused", tx.datagrams, b.N, tx.refused)
	}
}
