package buffer

import (
	"testing"

	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// randomBuffer fills a buffer of the given size and origin with a random
// ~half-full occupancy pattern.
func randomBuffer(rng *sim.RNG, size int, lo segment.ID) *Buffer {
	b := New(size, lo)
	for i := 0; i < size; i++ {
		if rng.Intn(2) == 0 {
			b.Insert(lo + segment.ID(i))
		}
	}
	return b
}

// TestAppendMissingInMatchesReference drives the word-scan enumeration
// against the obvious per-ID reference over random buffers and windows,
// including windows hanging off both buffer edges and empty intersections.
func TestAppendMissingInMatchesReference(t *testing.T) {
	rng := sim.DeriveRNG(1, 0x5ca9)
	for trial := 0; trial < 2000; trial++ {
		size := 1 + rng.Intn(200)
		lo := segment.ID(rng.Intn(500))
		b := randomBuffer(rng, size, lo)
		wlo := lo + segment.ID(rng.Intn(2*size+20)) - segment.ID(size/2+10)
		w := segment.Window{Lo: wlo, Hi: wlo + segment.ID(rng.Intn(size+20))}

		got := b.AppendMissingIn(nil, w)

		var want []segment.ID
		ref := w.Intersect(b.Window())
		for id := ref.Lo; id < ref.Hi; id++ {
			if !b.Has(id) {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (size=%d lo=%d w=%+v): got %d missing, want %d", trial, size, lo, w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: missing[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestAppendMissingInPreservesPrefix checks the arena contract: appended
// results land after an existing prefix without disturbing it.
func TestAppendMissingInPreservesPrefix(t *testing.T) {
	b := New(64, 0)
	b.Insert(3)
	prefix := []segment.ID{901, 902}
	out := b.AppendMissingIn(prefix, segment.Window{Lo: 2, Hi: 6})
	want := []segment.ID{901, 902, 2, 4, 5}
	if len(out) != len(want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("got %v, want %v", out, want)
		}
	}
}

// TestMissingMaskMatchesReference checks the one-word absence mask against
// per-ID probes: bit i of the mask must report w.Lo+i absent, with IDs
// outside the buffer window counting as absent and windows wider than 64
// truncated to the first word.
func TestMissingMaskMatchesReference(t *testing.T) {
	rng := sim.DeriveRNG(1, 0xa11d)
	for trial := 0; trial < 2000; trial++ {
		size := 1 + rng.Intn(200)
		lo := segment.ID(rng.Intn(500))
		b := randomBuffer(rng, size, lo)
		wlo := lo + segment.ID(rng.Intn(2*size+20)) - segment.ID(size/2+10)
		w := segment.Window{Lo: wlo, Hi: wlo + segment.ID(rng.Intn(90))}

		got := b.MissingMask(w)

		width := int(w.Hi - w.Lo)
		if width > 64 {
			width = 64
		}
		var want uint64
		for i := 0; i < width; i++ {
			if !b.Has(w.Lo + segment.ID(i)) {
				want |= 1 << uint(i)
			}
		}
		if got != want {
			t.Fatalf("trial %d (size=%d lo=%d w=%+v): mask %064b, want %064b", trial, size, lo, w, got, want)
		}
	}
}

// TestWordsFromMatchesHas drives the shifted-word read against per-ID Has
// over random sizes, origins and shifts in both directions — origins behind
// the map (a staler reader), ahead of it, whole windows apart — with stray
// padding bits set past Size the way an untrusted decoded map may carry
// them. Half the origins are word-aligned with the map (m.Lo itself, or
// m.Lo ± 64k), the word-copy path, with dst both longer and shorter than
// the map.
func TestWordsFromMatchesHas(t *testing.T) {
	rng := sim.DeriveRNG(1, 0x5f17)
	aligned, longer, shorter := 0, 0, 0
	for trial := 0; trial < 4000; trial++ {
		size := 1 + rng.Intn(700)
		lo := segment.ID(rng.Intn(2000))
		m := randomBuffer(rng, size, lo).Snapshot()
		if r := uint(size) & 63; r != 0 && rng.Intn(2) == 0 {
			m.Bits[len(m.Bits)-1] |= ^uint64(0) << r // garbage past Size
		}
		origin := lo + segment.ID(rng.Intn(2*size+200)) - segment.ID(size+100)
		dst := make([]uint64, 1+rng.Intn(13))
		if trial%2 == 0 {
			nw := len(m.Bits)
			origin = lo + segment.ID(64*(rng.Intn(2*nw+3)-nw-1))
			if origin == lo || rng.Intn(4) == 0 {
				origin = lo
				aligned++
				if len(dst) > nw {
					longer++
				} else if len(dst) < nw {
					shorter++
				}
			}
		}
		for i := range dst {
			dst[i] = ^uint64(0) // WordsFrom must overwrite, not OR into, dst
		}

		m.WordsFrom(dst, origin)

		for i := 0; i < 64*len(dst); i++ {
			got := dst[i>>6]&(1<<(uint(i)&63)) != 0
			if want := m.Has(origin + segment.ID(i)); got != want {
				t.Fatalf("trial %d (size=%d lo=%d origin=%d words=%d): bit %d (segment %d) = %v, Has = %v",
					trial, size, lo, origin, len(dst), i, origin+segment.ID(i), got, want)
			}
		}
	}
	if aligned == 0 || longer == 0 || shorter == 0 {
		t.Fatalf("%d reads at the map's own origin (%d with dst longer than the map, %d shorter): the aligned cases went untested",
			aligned, longer, shorter)
	}
}
