package livenet

import (
	"bytes"
	"reflect"
	"testing"

	"continustreaming/internal/buffer"
)

// FuzzWireDecode drives DecodeMessage with arbitrary bytes: it must
// never panic or over-allocate, and anything it accepts must re-encode
// to a decode-equal message (the codec's round-trip invariant holds for
// every accepted input, not just frames we produced). Only the current
// version is accepted. The seeds below cover every message kind in the
// current version; the corpus under testdata/fuzz/FuzzWireDecode adds the
// stamped shapes the re-sync path sends and, as must-reject cases, every
// kind in the retired version 1 layout; CI extends it with a timed fuzz
// run.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Period-stamped current-version seeds: a push-hop data frame, a
	// rescue grant, and a map announcement with gossip — the three
	// stamped shapes the re-sync path actually sends.
	b := buffer.New(64, 40)
	b.Insert(47)
	snap := b.Snapshot()
	seeds := []Message{
		{Kind: msgData, From: 3, Seg: 1200, Hop: 1, Period: 41},
		{Kind: msgData, From: 9, Seg: 77, Rescue: true, Period: 12},
		{Kind: msgMap, From: 2, Period: 77, Map: &snap, Gossip: []int{5, 11}},
	}
	for kind := msgMap; kind <= msgBye; kind++ {
		seeds = append(seeds, Message{Kind: kind, From: 4, Seg: 9, Period: 3})
	}
	for _, m := range seeds {
		frame, err := EncodeMessage(m)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if data[4] != wireVersion {
			t.Fatalf("accepted a version-%d frame: %+v", data[4], m)
		}
		frame, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v (%+v)", err, m)
		}
		m2, err := DecodeMessage(frame)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed the message\nfirst  %+v\nsecond %+v", m, m2)
		}
		// Re-encoding must be stable: the second decode equals the first.
		f2, err := EncodeMessage(m2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(frame, f2) {
			t.Fatalf("encode not stable:\nfirst  %x\nsecond %x", frame, f2)
		}
	})
}
