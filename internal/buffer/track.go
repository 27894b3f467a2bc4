package buffer

import (
	"fmt"
	"math"
	"math/bits"

	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// Track is a peer's per-segment record — is a gossip request out, is a
// pre-fetch out, was the segment tagged by one, when did it first arrive,
// does the peer back it up for the DHT — for the IDs of a window
// [lo, lo+size) that opens at its buffer's lo and slides with it. Both
// runtimes keep one beside their Buffer: the §4.3 machinery (Urgent Line,
// "repeated data", "overdue", VoD Data Backup) reads exactly these facts.
//
// The span is the caller's choice, at most the buffer size: it must cover
// every ID the peer can request, pre-fetch, tag or take in while the
// window opens at lo. The simulator opens it on its fetch span (playback
// delay plus one period's segments), the only IDs that exist between
// playback and the fetch edge; a livenet peer on its whole buffer, since a
// socket peer that lags its source is handed segments past its own fetch
// edge. The tracker holds exactly size slots — id maps to loSlot plus its
// offset from lo, wrapping once — so the mapping is collision-free across
// any window of tracked IDs without rounding the span up to a power of
// two, and needs no tag or hash (the package comment has why this half of
// the window is circular and the bitmap is not). Readers treat an ID past
// the span as untracked; writers panic on one.
//
// A slot is one 16-byte slotRec, and the two one-bit planes share one
// word slice, so a tracker is two allocations (or two pieces of a
// TrackStore's). Its millisecond stamps are int32: a stamp past
// math.MaxInt32 ms (24.8 days) panics at the writer rather than wrap.
//
// Expiry is a period index checked lazily at read time (expiry > round),
// which makes an expired entry indistinguishable from an absent one. The
// zero Track holds nothing; construct with OpenTrack.
type Track struct {
	lo     segment.ID // slots for ids < lo are clear; never decreases, >= 0
	loSlot int        // index of lo's slot: int(lo) % slots
	slots  int        // the span OpenTrack was given

	recs []slotRec
	// bits holds two planes of one bit per slot, the tag plane in its
	// first half and the backup plane in its second (see tagWord and
	// backupWord).
	//
	// A tag is set when a pre-fetch was issued for the segment, so a
	// gossip copy of it can be recognised as "repeated data" (§4.3 Case
	// 2) — the pre-fetch was unnecessary and α should shrink. Unlike
	// prefetchExpiry it survives the segment's arrival and is cleared
	// when the repeat decision is made.
	//
	// A backup bit is set while the peer holds the segment in its VoD
	// Data Backup (§4.3) on behalf of the DHT. The window's slide drops
	// it with the segment — "old data segments backuped ... gradually
	// become useless" — and a graceful leaver hands its bits to its heir
	// (HandBackupTo). Only the simulator writes it: a livenet peer
	// rescues from buffers and keeps no backup.
	bits []uint64
}

// slotRec is one slot's timed facts. Every field's clear state is zero.
type slotRec struct {
	arrived          int32 // first arrival time plus one; 0 = unrecorded
	gossipExpiry     int32 // retry bound; 0 = no pending request
	gossipExpectedAt int32 // promised arrival; valid while gossipExpiry set
	prefetchExpiry   int32 // 0 = no pending pre-fetch
}

// OpenTrack returns a clear tracker of slots entries (the span, see Track)
// whose window opens at lo (>= 0), on recycled's slices when it has any —
// a departed peer's opened on the same span, or a TrackStore's — and on
// fresh ones otherwise. Every field's clear state is zero, so reopening is
// two memory clears.
func OpenTrack(slots int, lo segment.ID, recycled Track) Track {
	t := recycled
	if t.recs == nil {
		t = Track{slots: slots, recs: make([]slotRec, slots), bits: make([]uint64, planeWords(slots))}
	} else {
		clear(t.recs)
		clear(t.bits)
	}
	t.lo, t.loSlot = lo, int(lo)%slots
	return t
}

// TrackStore holds the slices of many trackers on one span in two
// allocations, their slot records in one and their bit planes in the
// other, and hands them out in order, so trackers opened one after
// another lie one after another.
type TrackStore struct {
	slots int
	recs  []slotRec
	bits  []uint64
}

// NewTrackStore returns a store of n trackers' slices on a span of slots.
func NewTrackStore(slots, n int) *TrackStore {
	return &TrackStore{slots: slots, recs: make([]slotRec, n*slots), bits: make([]uint64, n*planeWords(slots))}
}

// planeWords is the length of a tracker's bits on a span of slots: two
// planes of one bit per slot.
func planeWords(slots int) int { return 2 * ((slots + 63) / 64) }

// Take returns the next tracker's clear slices, as a tracker for
// OpenTrack to reopen. It panics once the store's n are handed out.
func (s *TrackStore) Take() Track {
	words := planeWords(s.slots)
	t := Track{slots: s.slots, recs: s.recs[:s.slots:s.slots], bits: s.bits[:words:words]}
	s.recs, s.bits = s.recs[s.slots:], s.bits[words:]
	return t
}

// tagWord and backupWord return the index in bits of the word holding
// slot s's tag and backup bit.
func (t *Track) tagWord(s int) int    { return s >> 6 }
func (t *Track) backupWord(s int) int { return len(t.bits)>>1 + s>>6 }

// slotBit is slot s's bit within its plane word.
func slotBit(s int) uint64 { return 1 << (uint(s) & 63) }

// stamp32 narrows a millisecond stamp to a slot's int32 field.
func stamp32(at sim.Time) int32 {
	if at < math.MinInt32 || at > math.MaxInt32 {
		panic(fmt.Sprintf("buffer: time %d ms is past the int32 bound %d ms of a tracker slot", int64(at), math.MaxInt32))
	}
	return int32(at)
}

// Lo returns the lowest tracked ID.
func (t *Track) Lo() segment.ID { return t.lo }

// Size returns the number of slots: the span the tracker was opened on.
func (t *Track) Size() int { return t.slots }

// slot maps id to its array index; ok is false outside the tracked range.
func (t *Track) slot(id segment.ID) (int, bool) {
	off := int(id - t.lo)
	if off < 0 || off >= t.slots {
		return 0, false
	}
	s := t.loSlot + off
	if s >= t.slots {
		s -= t.slots
	}
	return s, true
}

// mustSlot is slot for writers, whose IDs are in the span by construction.
func (t *Track) mustSlot(id segment.ID) int {
	s, ok := t.slot(id)
	if !ok {
		panic(fmt.Sprintf("buffer: segment %d outside tracked window [%d,%d)", id, t.lo, t.lo+segment.ID(t.slots)))
	}
	return s
}

// AdvanceTo slides the tracked window, wiping state for every ID the
// window passed. Cost is O(min(shift, slots)). The first advance from a
// negative or zero position establishes lo >= 0; later calls only grow
// it, so loSlot stays a plain non-negative remainder.
func (t *Track) AdvanceTo(lo segment.ID) {
	if lo <= t.lo {
		return
	}
	k := int(lo - t.lo)
	if k > t.slots {
		k = t.slots
	}
	s := t.loSlot
	for i := 0; i < k; i++ {
		t.recs[s] = slotRec{}
		t.bits[t.tagWord(s)] &^= slotBit(s)
		t.bits[t.backupWord(s)] &^= slotBit(s)
		if s++; s == t.slots {
			s = 0
		}
	}
	t.lo = lo
	t.loSlot = int(lo) % t.slots
}

// MarkGossip records a gossip request for id that stays in flight while
// round < expiry, with the arrival time its supplier promised. An expiry of
// zero withdraws the request. A promised time past the int32 bound panics.
func (t *Track) MarkGossip(id segment.ID, expiry int, expectedAt sim.Time) {
	r := &t.recs[t.mustSlot(id)]
	r.gossipExpiry = int32(expiry)
	r.gossipExpectedAt = stamp32(expectedAt)
}

// MarkPrefetch records a pre-fetch for id that stays in flight while
// round < expiry, and tags the segment.
func (t *Track) MarkPrefetch(id segment.ID, expiry int) {
	s := t.mustSlot(id)
	t.recs[s].prefetchExpiry = int32(expiry)
	t.bits[t.tagWord(s)] |= slotBit(s)
}

// InFlight reports whether a gossip request or a pre-fetch for id is out
// in round.
func (t *Track) InFlight(id segment.ID, round int) bool {
	s, ok := t.slot(id)
	return ok && (int(t.recs[s].gossipExpiry) > round || int(t.recs[s].prefetchExpiry) > round)
}

// PrefetchPending reports whether a pre-fetch for id is out in round.
func (t *Track) PrefetchPending(id segment.ID, round int) bool {
	s, ok := t.slot(id)
	return ok && int(t.recs[s].prefetchExpiry) > round
}

// GossipExpected returns the promised arrival time of the gossip request
// out for id in round; ok is false when there is none.
func (t *Track) GossipExpected(id segment.ID, round int) (at sim.Time, ok bool) {
	s, ok := t.slot(id)
	if !ok || int(t.recs[s].gossipExpiry) <= round {
		return 0, false
	}
	return sim.Time(t.recs[s].gossipExpectedAt), true
}

// MaskInFlight clears, in a wanted-segments bitmap whose bit i stands for
// segment origin+i, every bit whose segment is in flight in round.
func (t *Track) MaskInFlight(words []uint64, origin segment.ID, round int) {
	for wi, word := range words {
		for m := word; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			if t.InFlight(origin+segment.ID(wi<<6|k), round) {
				word &^= 1 << uint(k)
			}
		}
		words[wi] = word
	}
}

// Received ends whatever was in flight for id: a copy of it has arrived,
// by whichever path. IDs outside the window hold nothing to end.
func (t *Track) Received(id segment.ID) {
	if s, ok := t.slot(id); ok {
		t.recs[s].gossipExpiry = 0
		t.recs[s].prefetchExpiry = 0
	}
}

// Tagged reports whether a pre-fetch was issued for id and the repeat
// decision is still open.
func (t *Track) Tagged(id segment.ID) bool {
	s, ok := t.slot(id)
	return ok && t.bits[t.tagWord(s)]&slotBit(s) != 0
}

// ClearTag closes id's repeat decision.
func (t *Track) ClearTag(id segment.ID) {
	if s, ok := t.slot(id); ok {
		t.bits[t.tagWord(s)] &^= slotBit(s)
	}
}

// NoteArrived records id's first arrival time, at >= 0 (later arrivals
// keep the original timestamp). The stored at+1 must fit the int32
// bound, so at = math.MaxInt32 panics.
func (t *Track) NoteArrived(id segment.ID, at sim.Time) {
	if r := &t.recs[t.mustSlot(id)]; r.arrived == 0 {
		r.arrived = stamp32(at + 1)
	}
}

// Arrived returns id's first arrival time, or -1 when none is on record
// (an untracked ID, or a segment that was present before tracking).
func (t *Track) Arrived(id segment.ID) sim.Time {
	if s, ok := t.slot(id); ok {
		return sim.Time(t.recs[s].arrived) - 1
	}
	return -1
}

// Back records that the peer backs up id, an ID inside the span.
func (t *Track) Back(id segment.ID) {
	s := t.mustSlot(id)
	t.bits[t.backupWord(s)] |= slotBit(s)
}

// BackedUp reports whether the peer backs up id.
func (t *Track) BackedUp(id segment.ID) bool {
	s, ok := t.slot(id)
	return ok && t.bits[t.backupWord(s)]&slotBit(s) != 0
}

// HandBackupTo moves every backed-up ID to to, a tracker whose window
// opens at the same lo on the same span (so the slots line up), and
// clears the giver's backup: the graceful-leave handover of §4.3, which
// "hand[s] over the data segments in its VoD Data Backup to n'".
func (t *Track) HandBackupTo(to *Track) {
	if to.lo != t.lo || to.slots != t.slots {
		panic(fmt.Sprintf("buffer: backup handover from window [%d,+%d) to [%d,+%d)", t.lo, t.slots, to.lo, to.slots))
	}
	half := len(t.bits) >> 1
	for i, w := range t.bits[half:] {
		to.bits[half+i] |= w
	}
	clear(t.bits[half:])
}
