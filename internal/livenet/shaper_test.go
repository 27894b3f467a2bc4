package livenet

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// tracePacket is one synthetic send of a trace schedule.
type tracePacket struct {
	Dst  int
	Size int
	At   time.Duration
}

// trace replays a synthetic send schedule through a fresh shaper and
// returns the decision sequence, one Fate per send, in call order — the
// replayable fingerprint of a (seed, profile) pair.
func trace(profile ShapeProfile, seed uint64, src int, schedule []tracePacket) []Fate {
	s := NewShaper(profile, seed, src)
	out := make([]Fate, len(schedule))
	for i, pkt := range schedule {
		out[i] = s.Shape(pkt.Dst, pkt.Size, pkt.At)
	}
	return out
}

// formatTrace renders a fate sequence one line per decision, so trace
// comparisons are byte comparisons.
func formatTrace(fates []Fate) string {
	var b strings.Builder
	for i, f := range fates {
		if f.Drop {
			fmt.Fprintf(&b, "%d drop\n", i)
		} else {
			fmt.Fprintf(&b, "%d delay=%dns\n", i, f.Delay.Nanoseconds())
		}
	}
	return b.String()
}

// traceSchedule builds a deterministic synthetic send schedule spread
// over several destinations: frames of varying size at a steady cadence,
// the shape of a real session's egress without any real session.
func traceSchedule(n int) []tracePacket {
	sched := make([]tracePacket, n)
	for i := range sched {
		sched[i] = tracePacket{
			Dst:  1 + i%5,
			Size: 200 + (i*97)%900,
			At:   time.Duration(i) * 2 * time.Millisecond,
		}
	}
	return sched
}

func TestShaperSameSeedIdenticalTrace(t *testing.T) {
	profile := ShapeProfile{
		Latency: 50 * time.Millisecond,
		Jitter:  20 * time.Millisecond,
		Loss:    0.02,
		Reorder: 0.01,
		Rate:    250_000,
	}
	sched := traceSchedule(400)
	a := formatTrace(trace(profile, 42, 7, sched))
	b := formatTrace(trace(profile, 42, 7, sched))
	if a != b {
		t.Fatalf("same (seed, profile, schedule) produced different traces:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "drop") {
		t.Fatalf("2%% loss over 400 sends never dropped — trace:\n%s", a)
	}
}

func TestShaperSeedChangesTrace(t *testing.T) {
	profile := ShapeProfile{Latency: 50 * time.Millisecond, Jitter: 20 * time.Millisecond, Loss: 0.02}
	sched := traceSchedule(400)
	a := formatTrace(trace(profile, 1, 7, sched))
	b := formatTrace(trace(profile, 2, 7, sched))
	if a == b {
		t.Fatal("different seeds produced byte-identical traces")
	}
}

func TestShaperSrcChangesTrace(t *testing.T) {
	// The per-link stream is derived from (seed, src, dst): two nodes
	// sharing one shape seed must not mirror each other's loss pattern.
	profile := ShapeProfile{Loss: 0.5}
	sched := traceSchedule(64)
	a := formatTrace(trace(profile, 42, 1, sched))
	b := formatTrace(trace(profile, 42, 2, sched))
	if a == b {
		t.Fatal("different source nodes produced byte-identical traces")
	}
}

func TestShaperLinksIndependent(t *testing.T) {
	// Interleaving sends to a second destination must not perturb the
	// first link's decision sequence: per-link streams are isolated.
	profile := ShapeProfile{Latency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond, Loss: 0.1}
	solo := make([]tracePacket, 100)
	for i := range solo {
		solo[i] = tracePacket{Dst: 1, Size: 500, At: time.Duration(i) * time.Millisecond}
	}
	var mixed []tracePacket
	for i := range solo {
		mixed = append(mixed, solo[i], tracePacket{Dst: 2, Size: 900, At: solo[i].At})
	}
	soloFates := trace(profile, 9, 3, solo)
	mixedFates := trace(profile, 9, 3, mixed)
	for i := range soloFates {
		if soloFates[i] != mixedFates[2*i] {
			t.Fatalf("send %d to dst 1 changed fate when dst 2 traffic interleaved: %+v vs %+v",
				i, soloFates[i], mixedFates[2*i])
		}
	}
}

func TestShaperLatencyJitterBounds(t *testing.T) {
	profile := ShapeProfile{Latency: 50 * time.Millisecond, Jitter: 20 * time.Millisecond}
	lo, hi := 30*time.Millisecond, 70*time.Millisecond
	seenLo, seenHi := false, false
	for _, f := range trace(profile, 7, 1, traceSchedule(500)) {
		if f.Drop {
			t.Fatal("lossless profile dropped a datagram")
		}
		if f.Delay < lo || f.Delay > hi {
			t.Fatalf("delay %v outside [%v, %v]", f.Delay, lo, hi)
		}
		if f.Delay < 40*time.Millisecond {
			seenLo = true
		}
		if f.Delay > 60*time.Millisecond {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Fatalf("jitter never reached both halves of the band (lo=%v hi=%v)", seenLo, seenHi)
	}
}

func TestShaperTokenBucket(t *testing.T) {
	// 100 kB/s with a 1000-byte bucket: the first 1000-byte datagram
	// spends the burst, an immediate second one owes its full serialisation
	// time (10ms), and after a long idle gap the bucket is full again.
	profile := ShapeProfile{Rate: 100_000, Burst: 1000}
	fates := trace(profile, 1, 1, []tracePacket{
		{Dst: 1, Size: 1000, At: 0},
		{Dst: 1, Size: 1000, At: 0},
		{Dst: 1, Size: 1000, At: time.Second},
	})
	if fates[0].Delay != 0 {
		t.Fatalf("first datagram inside the burst was delayed %v", fates[0].Delay)
	}
	if want := 10 * time.Millisecond; fates[1].Delay != want {
		t.Fatalf("over-budget datagram delayed %v, want %v", fates[1].Delay, want)
	}
	if fates[2].Delay != 0 {
		t.Fatalf("datagram after refill idle was delayed %v", fates[2].Delay)
	}
}

// TestShaperTokenBucketKeepsFractionalCredit sends faster than one byte's
// time apart, so no gap between two sends accrues a whole byte: each
// datagram must still wait out the closed-form backlog (bytes sent −
// burst − Rate·elapsed)/Rate, to within one byte's time. A bucket that
// drops the fraction at every send never refills and owes more each time.
func TestShaperTokenBucketKeepsFractionalCredit(t *testing.T) {
	const rate, burst, size = 100_000, 1000, 100
	gap := 9 * time.Microsecond // 0.9 bytes of credit per send
	s := NewShaper(ShapeProfile{Rate: rate, Burst: burst}, 1, 1)
	byteTime := float64(time.Second) / rate
	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * gap
		fate := s.Shape(2, size, at)
		backlog := float64((i+1)*size-burst) - rate*at.Seconds()
		want := max(0, backlog) * byteTime
		if d := float64(fate.Delay) - want; d < -byteTime || d > byteTime {
			t.Fatalf("send %d at %v delayed %v, want %v (the backlog of %.1f bytes)",
				i, at, fate.Delay, time.Duration(want), backlog)
		}
	}
}

func TestShaperReorderSkipsLatency(t *testing.T) {
	// With reorder certain, every datagram skips the latency queue.
	profile := ShapeProfile{Latency: 50 * time.Millisecond, Reorder: 1}
	for i, f := range trace(profile, 3, 1, traceSchedule(20)) {
		if f.Drop || f.Delay != 0 {
			t.Fatalf("send %d: reorder=1 should zero the delay, got %+v", i, f)
		}
	}
}

func TestNewShaperZeroProfileIsNil(t *testing.T) {
	if s := NewShaper(ShapeProfile{}, 1, 1); s != nil {
		t.Fatal("zero profile built a shaper")
	}
	// And the nil shaper is a clean network.
	var s *Shaper
	if f := s.Shape(1, 100, 0); f.Drop || f.Delay != 0 {
		t.Fatalf("nil shaper shaped: %+v", f)
	}
	if s.Dropped() != 0 || s.Delayed() != 0 {
		t.Fatal("nil shaper reported non-zero telemetry")
	}
}

func TestParseShapeProfile(t *testing.T) {
	cases := []struct {
		in   string
		want ShapeProfile
	}{
		{"", ShapeProfile{}},
		{"loss=2%,latency=50ms,jitter=20ms", ShapeProfile{Latency: 50 * time.Millisecond, Jitter: 20 * time.Millisecond, Loss: 0.02}},
		{"lat=10ms, jit=5ms", ShapeProfile{Latency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}},
		{"loss=0.25", ShapeProfile{Loss: 0.25}},
		{"rate=1mbit", ShapeProfile{Rate: 125_000}},
		{"rate=80kbit,burst=4000", ShapeProfile{Rate: 10_000, Burst: 4000}},
		{"rate=2000000", ShapeProfile{Rate: 2_000_000}},
		{"reorder=1%", ShapeProfile{Reorder: 0.01}},
	}
	for _, tc := range cases {
		got, err := ParseShapeProfile(tc.in)
		if err != nil {
			t.Fatalf("ParseShapeProfile(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("ParseShapeProfile(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{
		"latency",          // not key=value
		"speed=1mbit",      // unknown key
		"latency=fast",     // bad duration
		"loss=150%",        // probability out of range
		"loss=-0.1",        // negative probability
		"reorder=2",        // probability out of range
		"latency=-5ms",     // negative duration
		"rate=-1",          // negative rate
		"burst=notanumber", // bad int
	} {
		if _, err := ParseShapeProfile(bad); err == nil {
			t.Fatalf("ParseShapeProfile(%q) accepted", bad)
		}
	}
}

func TestShaperCounters(t *testing.T) {
	s := NewShaper(ShapeProfile{Loss: 1}, 5, 1)
	for i := 0; i < 10; i++ {
		if f := s.Shape(2, 100, 0); !f.Drop {
			t.Fatal("loss=1 let a datagram through")
		}
	}
	if s.Dropped() != 10 || s.Delayed() != 0 {
		t.Fatalf("counters after 10 certain drops: dropped=%d delayed=%d", s.Dropped(), s.Delayed())
	}
	s = NewShaper(ShapeProfile{Latency: time.Millisecond}, 5, 1)
	s.Shape(2, 100, 0)
	s.Shape(3, 100, 0)
	if s.Dropped() != 0 || s.Delayed() != 2 {
		t.Fatalf("counters after 2 delayed sends: dropped=%d delayed=%d", s.Dropped(), s.Delayed())
	}
	if len(s.links) != 2 || s.links[2] == nil || s.links[3] == nil {
		t.Fatalf("shaped links %v, want one each for destinations 2 and 3", s.links)
	}
}

// FuzzParseShapeProfile drives the -shape flag and manifest "shape" parser
// with arbitrary text: it must never panic, and a profile it accepts must
// be one the shaper can run — validate passes, NewShaper builds (nil only
// for a profile that shapes nothing) and a few sends over one link draw
// fates without a negative delay.
func FuzzParseShapeProfile(f *testing.F) {
	for _, s := range []string{
		"", "loss=2%,latency=50ms,jitter=20ms", "lat=10ms, jit=5ms", "loss=0.25", "rate=1mbit",
		"rate=80kbit,burst=4000", "rate=2000000", "reorder=1%,latency=1h", "loss=100%",
		"latency", "speed=1mbit", "loss=150%", "latency=-5ms", "burst=notanumber", "jitter=2562047h",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseShapeProfile(s)
		if err != nil {
			return
		}
		if err := p.validate(); err != nil {
			t.Fatalf("ParseShapeProfile(%q) accepted %+v, which validate rejects: %v", s, p, err)
		}
		sh := NewShaper(p, 7, 1)
		if (sh == nil) != p.IsZero() {
			t.Fatalf("ParseShapeProfile(%q) = %+v: shaper nil=%v, profile zero=%v", s, p, sh == nil, p.IsZero())
		}
		for i := 0; i < 4; i++ {
			if fate := sh.Shape(2, 1200, time.Duration(i)*time.Millisecond); fate.Delay < 0 {
				t.Fatalf("ParseShapeProfile(%q): send %d delayed by %v", s, i, fate.Delay)
			}
		}
	})
}
