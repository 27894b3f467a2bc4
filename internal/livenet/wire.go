package livenet

import (
	"encoding/binary"
	"fmt"
	"slices"

	"continustreaming/internal/buffer"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// Wire format: every Message crosses a process boundary as one
// length-prefixed binary frame. The prefix is the delimiter: the UDP
// transport packs the frames it sends one peer between two waits into
// one datagram, a chain of frames whose prefixes must end exactly at its
// last byte (a check against truncation), and a stream transport would
// chain them the same way. Layout, all integers little-endian:
//
//	uint32  payload length n (bytes after this prefix)
//	byte    version (wireVersion)
//	byte    kind
//	byte    flags (bit 0: Map present, bit 1: Rescue)
//	int32   From
//	int64   Seg
//	int64   Deadline
//	byte    Hop
//	int32   Period
//	uint16  gossip entry count
//	  per entry: int32 peer ID, uint8 address length, address bytes
//	if Map present: uint32 map length, then buffer.Map.AppendMarshal bytes
//
// Period is the sender's current session period, stamped on every
// message: the continuous clock re-sync that replaces trusting the
// one-shot bootstrap handshake (a receiver that missed ticks — GC pause,
// scheduler stall, loss-delayed handshake — re-anchors to the max stamp
// it hears). Version 1 frames, which carried no stamp, are rejected like
// any other unknown version.
//
// Gossip entries carry an optional transport address (empty in-process;
// the UDP transport fills them from its address book so membership
// gossip teaches receivers how to reach the peers it names — the routed
// replacement for the in-process transport's registry). Decoding is
// strict: unknown versions and kinds, counts beyond the caps, lengths
// that disagree with the prefix, and trailing bytes are all errors, so a
// hostile or corrupted datagram cannot make a peer allocate unbounded
// memory or misparse a field.
const (
	wireVersion = 2

	// wireHeaderLen is the fixed part of a payload: version, kind, flags,
	// From, Seg, Deadline, Hop, Period, gossip count.
	wireHeaderLen = 1 + 1 + 1 + 4 + 8 + 8 + 1 + 4 + 2

	// maxFrame bounds a whole frame; a UDP datagram cannot exceed 65507
	// payload bytes anyway, and every legitimate message (B=600 map plus
	// a handful of gossip entries) is under 200 bytes.
	maxFrame = 64 << 10
	// maxGossipEntries bounds the membership-gossip list: the protocol
	// sends two picks per neighbour plus an RP bootstrap sample, both
	// orders of magnitude below this.
	maxGossipEntries = 512

	flagHasMap = 1 << 0
	flagRescue = 1 << 1
)

// EncodeMessage renders m as one wire frame: AppendMessage(nil, m).
func EncodeMessage(m Message) ([]byte, error) {
	return AppendMessage(nil, m)
}

// AppendMessage appends m's wire frame to dst and returns the extended
// slice, growing it at most once and allocating nothing when dst has the
// room. It fails on values the format cannot carry (negative or
// over-int32 IDs, oversized gossip lists or addresses) rather than
// truncating silently, and then returns dst unchanged.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	size, err := frameSize(m)
	if err != nil {
		return dst, err
	}
	return appendFrame(slices.Grow(dst, size), m, size), nil
}

// frameSize checks that the format can carry m and returns the length of
// its frame, prefix included.
func frameSize(m Message) (int, error) {
	if m.Kind > msgBye {
		return 0, fmt.Errorf("livenet: unknown message kind %d", m.Kind)
	}
	if m.From < 0 || int64(m.From) > int64(1<<31-1) {
		return 0, fmt.Errorf("livenet: peer ID %d outside wire range", m.From)
	}
	if m.Hop < 0 || m.Hop > 255 {
		return 0, fmt.Errorf("livenet: hop count %d outside wire range", m.Hop)
	}
	if m.Period < 0 || int64(m.Period) > int64(1<<31-1) {
		return 0, fmt.Errorf("livenet: period stamp %d outside wire range", m.Period)
	}
	if len(m.Gossip) > maxGossipEntries {
		return 0, fmt.Errorf("livenet: %d gossip entries exceed the wire cap %d", len(m.Gossip), maxGossipEntries)
	}
	if m.GossipAddrs != nil && len(m.GossipAddrs) != len(m.Gossip) {
		return 0, fmt.Errorf("livenet: %d gossip addresses for %d entries", len(m.GossipAddrs), len(m.Gossip))
	}
	size := 4 + wireHeaderLen + 5*len(m.Gossip)
	for _, g := range m.Gossip {
		if g < 0 || int64(g) > int64(1<<31-1) {
			return 0, fmt.Errorf("livenet: gossip peer ID %d outside wire range", g)
		}
	}
	for _, a := range m.GossipAddrs {
		if len(a) > 255 {
			return 0, fmt.Errorf("livenet: gossip address %q longer than 255 bytes", a)
		}
		size += len(a)
	}
	if m.Map != nil {
		size += 4 + m.Map.MarshalLen()
	}
	if size > maxFrame {
		return 0, fmt.Errorf("livenet: %d-byte frame exceeds the %d-byte cap", size, maxFrame)
	}
	return size, nil
}

// appendFrame appends the frame of m, which frameSize has passed as size
// bytes long.
func appendFrame(out []byte, m Message, size int) []byte {
	flags := byte(0)
	if m.Rescue {
		flags |= flagRescue
	}
	if m.Map != nil {
		flags |= flagHasMap
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(size-4))
	out = append(out, wireVersion, byte(m.Kind), flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(m.From))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.Seg))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.Deadline))
	out = append(out, byte(m.Hop))
	out = binary.LittleEndian.AppendUint32(out, uint32(m.Period))
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
		out = binary.LittleEndian.AppendUint32(out, uint32(m.Map.MarshalLen()))
		out = m.Map.AppendMarshal(out)
	}
	return out
}

// DecodeMessage parses one complete frame (length prefix included), as
// split from a datagram. Every length is validated before the allocation
// it sizes, and the frame must be consumed exactly.
func DecodeMessage(data []byte) (Message, error) {
	if len(data) < 4 {
		return Message{}, fmt.Errorf("livenet: %d-byte frame shorter than the length prefix", len(data))
	}
	if len(data) > maxFrame {
		return Message{}, fmt.Errorf("livenet: %d-byte frame exceeds the %d-byte cap", len(data), maxFrame)
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	if n != len(data)-4 {
		return Message{}, fmt.Errorf("livenet: length prefix %d disagrees with %d payload bytes", n, len(data)-4)
	}
	p := data[4:]
	if len(p) < 1 {
		return Message{}, fmt.Errorf("livenet: empty payload")
	}
	if p[0] != wireVersion {
		return Message{}, fmt.Errorf("livenet: unsupported wire version %d", p[0])
	}
	if len(p) < wireHeaderLen {
		return Message{}, fmt.Errorf("livenet: %d-byte payload shorter than the %d-byte header", len(p), wireHeaderLen)
	}
	kind := MsgKind(p[1])
	if kind > msgBye {
		return Message{}, fmt.Errorf("livenet: unknown message kind %d", kind)
	}
	flags := p[2]
	if flags&^(flagHasMap|flagRescue) != 0 {
		return Message{}, fmt.Errorf("livenet: unknown flag bits %#x", flags)
	}
	m := Message{
		Kind:     kind,
		From:     int(int32(binary.LittleEndian.Uint32(p[3:7]))),
		Seg:      segment.ID(binary.LittleEndian.Uint64(p[7:15])),
		Deadline: sim.Time(binary.LittleEndian.Uint64(p[15:23])),
		Hop:      int(p[23]),
		Period:   int(int32(binary.LittleEndian.Uint32(p[24:28]))),
		Rescue:   flags&flagRescue != 0,
	}
	if m.From < 0 {
		return Message{}, fmt.Errorf("livenet: negative peer ID %d", m.From)
	}
	if m.Period < 0 {
		return Message{}, fmt.Errorf("livenet: negative period stamp %d", m.Period)
	}
	count := int(binary.LittleEndian.Uint16(p[wireHeaderLen-2 : wireHeaderLen]))
	if count > maxGossipEntries {
		return Message{}, fmt.Errorf("livenet: %d gossip entries exceed the wire cap %d", count, maxGossipEntries)
	}
	off := wireHeaderLen
	if count > 0 {
		m.Gossip = make([]int, count)
		addrs := make([]string, count)
		haveAddr := false
		for i := 0; i < count; i++ {
			if len(p)-off < 5 {
				return Message{}, fmt.Errorf("livenet: truncated gossip entry %d", i)
			}
			id := int(int32(binary.LittleEndian.Uint32(p[off : off+4])))
			if id < 0 {
				return Message{}, fmt.Errorf("livenet: negative gossip peer ID %d", id)
			}
			alen := int(p[off+4])
			off += 5
			if len(p)-off < alen {
				return Message{}, fmt.Errorf("livenet: truncated gossip address in entry %d", i)
			}
			m.Gossip[i] = id
			if alen > 0 {
				addrs[i] = string(p[off : off+alen])
				haveAddr = true
			}
			off += alen
		}
		if haveAddr {
			m.GossipAddrs = addrs
		}
	}
	if flags&flagHasMap != 0 {
		if len(p)-off < 4 {
			return Message{}, fmt.Errorf("livenet: truncated map length")
		}
		mlen := int(binary.LittleEndian.Uint32(p[off : off+4]))
		off += 4
		if mlen > len(p)-off {
			return Message{}, fmt.Errorf("livenet: map length %d exceeds %d remaining bytes", mlen, len(p)-off)
		}
		bm, err := buffer.UnmarshalMap(p[off : off+mlen])
		if err != nil {
			return Message{}, fmt.Errorf("livenet: %v", err)
		}
		m.Map = &bm
		off += mlen
	}
	if off != len(p) {
		return Message{}, fmt.Errorf("livenet: %d trailing bytes after the message", len(p)-off)
	}
	return m, nil
}
