package livenet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
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

// FuzzDatagram drives a socket node's ingress with arbitrary datagrams:
// take splits one into its chain of frames, and receive's step decodes
// them one at a time. Neither may panic. A datagram take keeps must be
// covered exactly by its prefix chain, and every frame of it must name
// one From other than the receiver's; every frame handed over must be the
// one DecodeMessage makes of those bytes and re-encode to them exactly.
// The seed corpus under testdata/fuzz/FuzzDatagram holds packed chains as
// flush sends them (a map, requests and data from one sender; a ConnectOK
// past the cap, alone; the control kinds) and the near misses take must
// refuse (two senders, the receiver's own ID, a trailing byte) or pass
// with one frame skipped (a malformed middle frame).
func FuzzDatagram(f *testing.F) {
	const self = 1
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		split := &udpTransport{self: self}
		split.take(data, netip.AddrPort{})
		if len(split.rest) == 0 {
			return // refused, or empty
		}
		var frames [][]byte
		covered := 0
		for len(split.rest) > 0 {
			frame := split.pop()
			frames = append(frames, frame)
			covered += len(frame)
			if from := int32(binary.LittleEndian.Uint32(frame[7:11])); from == self || from != int32(binary.LittleEndian.Uint32(frames[0][7:11])) {
				t.Fatalf("kept a datagram whose frame %d names From %d", len(frames)-1, from)
			}
		}
		if covered != len(data) {
			t.Fatalf("kept a datagram its %d frames cover %d of %d bytes of", len(frames), covered, len(data))
		}
		rx := &udpTransport{self: self}
		rx.take(data, netip.AddrPort{})
		for _, frame := range frames {
			m, err := DecodeMessage(frame)
			if err != nil {
				continue // skipped by next as well
			}
			if !rx.next() || !reflect.DeepEqual(rx.in, m) {
				t.Fatalf("the hand-over step did not hand over frame %x as %+v", frame, m)
			}
			again, err := EncodeMessage(m)
			if err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("a handed-over frame re-encodes differently (%v)\nframe  %x\nagain  %x", err, frame, again)
			}
		}
		if rx.next() {
			t.Fatalf("the hand-over step handed over a frame past the chain: %+v", rx.in)
		}
	})
}
