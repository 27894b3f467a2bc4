// Package segment models the media stream that ContinuStreaming
// disseminates: a totally ordered sequence of fixed-size data segments
// produced by a single source at a constant playback rate. The paper's
// defaults are a 300 Kbps stream cut into 30 Kb segments, i.e. p = 10
// segments per second (§5.2).
package segment

import (
	"fmt"

	"continustreaming/internal/sim"
)

// ID identifies a data segment. IDs are assigned consecutively from 0 in
// generation order, so comparisons on IDs are comparisons on stream time.
type ID int64

// String renders the ID for logs and error messages.
func (id ID) String() string { return fmt.Sprintf("seg#%d", int64(id)) }

// Stream describes the source media stream.
type Stream struct {
	// Rate is the playback rate p in segments per second. The paper uses 10.
	Rate int
	// BitsPerSegment is the payload size of one segment in bits. The paper
	// uses 30 Kb = 30*1024 bits, giving a 300 Kbps stream at p = 10.
	BitsPerSegment int64
}

// DefaultStream returns the paper's stream parameters.
func DefaultStream() Stream {
	return Stream{Rate: 10, BitsPerSegment: 30 * 1024}
}

// Validate reports a descriptive error for non-physical parameters.
func (s Stream) Validate() error {
	if s.Rate <= 0 {
		return fmt.Errorf("segment: stream rate %d must be positive", s.Rate)
	}
	if s.BitsPerSegment <= 0 {
		return fmt.Errorf("segment: segment size %d bits must be positive", s.BitsPerSegment)
	}
	return nil
}

// Interval returns the wall time between consecutive segments.
func (s Stream) Interval() sim.Time {
	return sim.Second / sim.Time(s.Rate)
}

// GeneratedAt returns the virtual time at which the source emits segment id.
// Segment 0 is emitted at time 0.
func (s Stream) GeneratedAt(id ID) sim.Time {
	return sim.Time(id) * s.Interval()
}

// Window is a half-open interval of segment IDs [Lo, Hi). It is used for
// playback rounds ("the p segments due this round") and buffer coverage.
type Window struct {
	Lo, Hi ID
}

// Len returns the number of IDs in the window.
func (w Window) Len() int {
	if w.Hi <= w.Lo {
		return 0
	}
	return int(w.Hi - w.Lo)
}

// Contains reports whether id lies in the window.
func (w Window) Contains(id ID) bool { return id >= w.Lo && id < w.Hi }

// Intersect returns the overlap of two windows (possibly empty).
func (w Window) Intersect(o Window) Window {
	lo, hi := w.Lo, w.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if hi < lo {
		hi = lo
	}
	return Window{Lo: lo, Hi: hi}
}

// String renders the window as "[lo,hi)".
func (w Window) String() string { return fmt.Sprintf("[%d,%d)", w.Lo, w.Hi) }
