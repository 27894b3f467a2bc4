package livenet

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"continustreaming/internal/buffer"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// randomMessage builds a message of the given kind with randomized
// fields, populating exactly the fields that kind carries on the real
// paths (plus occasional extras — the codec is a union and must carry
// any field for any kind).
func randomMessage(rng *sim.RNG, kind MsgKind) Message {
	m := Message{From: rng.Intn(1 << 16), Kind: kind, Period: rng.Intn(1 << 20)}
	switch kind {
	case msgMap, msgConnectOK:
		b := buffer.New(1+rng.Intn(700), segment.ID(rng.Intn(10000)))
		for i := 0; i < 40; i++ {
			b.Insert(b.Lo() + segment.ID(rng.Intn(b.Size())))
		}
		snap := b.Snapshot()
		m.Map = &snap
		if n := rng.Intn(5); n > 0 {
			m.Gossip = make([]int, n)
			m.GossipAddrs = make([]string, n)
			for i := range m.Gossip {
				m.Gossip[i] = rng.Intn(1 << 20)
				if rng.Bool(0.7) {
					m.GossipAddrs[i] = "127.0.0.1:40000"
				}
			}
			allEmpty := true
			for _, a := range m.GossipAddrs {
				if a != "" {
					allEmpty = false
				}
			}
			if allEmpty {
				// The wire collapses all-empty address lists to nil.
				m.GossipAddrs = nil
			}
		}
		if kind == msgConnectOK {
			m.Deadline = sim.Time(rng.Intn(1 << 20))
		}
	case msgRequest:
		m.Seg = segment.ID(rng.Intn(1 << 20))
		m.Deadline = sim.Time(rng.Intn(1 << 20))
	case msgData:
		m.Seg = segment.ID(rng.Intn(1 << 20))
		m.Hop = rng.Intn(4)
		m.Rescue = rng.Bool(0.3)
	case msgRescueReq:
		m.Seg = segment.ID(rng.Intn(1 << 20))
	case msgConnect, msgBye:
		// identity-only control messages
	}
	return m
}

// TestWireRoundTripAllKinds is the property test: every message kind,
// with randomized field contents, survives encode→decode unchanged, and
// AppendMessage onto any prefix, with or without the room, writes that
// prefix followed by EncodeMessage's frame.
func TestWireRoundTripAllKinds(t *testing.T) {
	rng := sim.DeriveRNG(42, 0x319e)
	for kind := msgMap; kind <= msgBye; kind++ {
		for trial := 0; trial < 200; trial++ {
			m := randomMessage(rng, kind)
			frame, err := EncodeMessage(m)
			if err != nil {
				t.Fatalf("kind %d trial %d: encode: %v (message %+v)", kind, trial, err, m)
			}
			got, err := DecodeMessage(frame)
			if err != nil {
				t.Fatalf("kind %d trial %d: decode: %v", kind, trial, err)
			}
			if !reflect.DeepEqual(m, got) {
				t.Fatalf("kind %d trial %d: round trip changed the message\nsent %+v\ngot  %+v", kind, trial, m, got)
			}
			prefix := make([]byte, rng.Intn(80), 80+rng.Intn(2)*len(frame))
			for i := range prefix {
				prefix[i] = byte(rng.Intn(256))
			}
			want := append(append([]byte(nil), prefix...), frame...)
			appended, err := AppendMessage(prefix, m)
			if err != nil {
				t.Fatalf("kind %d trial %d: append: %v", kind, trial, err)
			}
			if !bytes.Equal(appended, want) {
				t.Fatalf("kind %d trial %d: AppendMessage onto %d bytes is not the prefix and the frame", kind, trial, len(prefix))
			}
		}
	}
}

// TestWireRejectsTruncation: every strict prefix of a valid frame must
// be rejected, never misparsed.
func TestWireRejectsTruncation(t *testing.T) {
	rng := sim.DeriveRNG(7, 0x7a0)
	for kind := msgMap; kind <= msgBye; kind++ {
		m := randomMessage(rng, kind)
		frame, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("encode kind %d: %v", kind, err)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := DecodeMessage(frame[:cut]); err == nil {
				t.Fatalf("kind %d: %d-byte prefix of a %d-byte frame decoded without error", kind, cut, len(frame))
			}
		}
	}
}

// TestWireRejectsMalformedFrames covers the explicit bounds checks:
// oversized frames, lying length prefixes, bogus versions/kinds/flags,
// hostile gossip counts and map lengths, trailing bytes.
func TestWireRejectsMalformedFrames(t *testing.T) {
	valid, err := EncodeMessage(Message{From: 3, Kind: msgBye})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":           {},
		"prefix only":     {0, 0, 0, 0},
		"oversized frame": make([]byte, maxFrame+1),
		"lying prefix": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[0:4], 9999)
			return b
		}),
		"bad version": mutate(func(b []byte) []byte { b[4] = 99; return b }),
		"bad kind":    mutate(func(b []byte) []byte { b[5] = byte(msgBye) + 1; return b }),
		"bad flags":   mutate(func(b []byte) []byte { b[6] = 0x80; return b }),
		"trailing bytes": mutate(func(b []byte) []byte {
			b = append(b, 0xAB)
			binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)-4))
			return b
		}),
		"hostile gossip count": mutate(func(b []byte) []byte {
			// Claim maxGossipEntries entries with no bytes behind them.
			binary.LittleEndian.PutUint16(b[4+wireHeaderLen-2:], maxGossipEntries)
			return b
		}),
		"gossip count over cap": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4+wireHeaderLen-2:], maxGossipEntries+1)
			return b
		}),
		"negative period stamp": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4+24:], 1<<31)
			return b
		}),
	}
	for name, frame := range cases {
		if _, err := DecodeMessage(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// A map length that points past the frame end must be caught before
	// the map parse, and a corrupt map payload must fail cleanly.
	b := buffer.New(64, 5)
	b.Insert(7)
	snap := b.Snapshot()
	withMap, err := EncodeMessage(Message{From: 1, Kind: msgMap, Map: &snap})
	if err != nil {
		t.Fatal(err)
	}
	long := append([]byte(nil), withMap...)
	binary.LittleEndian.PutUint32(long[4+wireHeaderLen:], 1<<30)
	if _, err := DecodeMessage(long); err == nil {
		t.Error("map length past frame end decoded without error")
	}
	short := append([]byte(nil), withMap...)
	binary.LittleEndian.PutUint32(short[4+wireHeaderLen:], 3)
	if _, err := DecodeMessage(short); err == nil {
		t.Error("map shorter than its own header decoded without error")
	}
}

// encodeMessageV1 renders m in the wire version 1 layout (no Period
// field) — the format pre-resync nodes spoke, kept here as the reference
// for the must-reject contract. It supports exactly the shapes
// randomMessage produces.
func encodeMessageV1(t *testing.T, m Message) []byte {
	t.Helper()
	out := make([]byte, 4)
	out = append(out, 1, byte(m.Kind))
	flags := byte(0)
	if m.Rescue {
		flags |= flagRescue
	}
	if m.Map != nil {
		flags |= flagHasMap
	}
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(m.From))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.Seg))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.Deadline))
	out = append(out, byte(m.Hop))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(m.Gossip)))
	for i, g := range m.Gossip {
		addr := ""
		if m.GossipAddrs != nil {
			addr = m.GossipAddrs[i]
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(g))
		out = append(out, byte(len(addr)))
		out = append(out, addr...)
	}
	if m.Map != nil {
		mb := m.Map.AppendMarshal(nil)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(mb)))
		out = append(out, mb...)
	}
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(out)-4))
	return out
}

// TestWireRejectsVersion1Frames pins the retired version: no kind in the
// pre-period-stamp layout decodes any more — an unstamped frame must not
// reach a peer as a message stamped with period 0 — and neither does any
// prefix of one.
func TestWireRejectsVersion1Frames(t *testing.T) {
	rng := sim.DeriveRNG(99, 0x1111)
	for kind := msgMap; kind <= msgBye; kind++ {
		for trial := 0; trial < 50; trial++ {
			frame := encodeMessageV1(t, randomMessage(rng, kind))
			for cut := 0; cut <= len(frame); cut++ {
				if m, err := DecodeMessage(frame[:cut]); err == nil {
					t.Fatalf("kind %d trial %d: %d of %d bytes of a v1 frame decoded as %+v", kind, trial, cut, len(frame), m)
				}
			}
		}
	}
}

// TestWireEncodeRejectsUncarriableValues pins the encode-side guards.
func TestWireEncodeRejectsUncarriableValues(t *testing.T) {
	cases := map[string]Message{
		"unknown kind":       {Kind: msgBye + 1},
		"negative from":      {From: -1},
		"oversized from":     {From: 1 << 40},
		"negative hop":       {Kind: msgData, Hop: -1},
		"oversized hop":      {Kind: msgData, Hop: 300},
		"negative period":    {Kind: msgMap, Period: -1},
		"oversized period":   {Kind: msgMap, Period: 1 << 31},
		"negative gossip id": {Kind: msgMap, Gossip: []int{-4}},
		"too much gossip":    {Kind: msgMap, Gossip: make([]int, maxGossipEntries+1)},
		"addr/gossip mismatch": {
			Kind: msgMap, Gossip: []int{1, 2}, GossipAddrs: []string{"x"},
		},
		"oversized addr": {
			Kind: msgMap, Gossip: []int{1}, GossipAddrs: []string{string(make([]byte, 256))},
		},
	}
	prefix := []byte{1, 2, 3}
	for name, m := range cases {
		if _, err := EncodeMessage(m); err == nil {
			t.Errorf("%s: encoded without error", name)
		}
		if got, err := AppendMessage(prefix, m); err == nil || !bytes.Equal(got, prefix) {
			t.Errorf("%s: AppendMessage returned %v, %v; want the prefix unchanged and an error", name, got, err)
		}
	}
}
