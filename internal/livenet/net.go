package livenet

import (
	"slices"

	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// MsgKind discriminates the protocol messages peers exchange.
type MsgKind uint8

// The livenet wire protocol: the periodic buffer-map exchange (with
// piggybacked membership gossip), pull requests and data grants, the
// rescue request (a ring-hashed peer asked for a buffered segment; see
// EXPERIMENTS.md "Livenet ring") with its data reply, and the
// mesh-repair control messages.
const (
	msgMap MsgKind = iota
	msgRequest
	msgData
	msgRescueReq
	msgConnect
	msgConnectOK
	msgBye
)

// Message is the union of protocol messages exchanged between peers.
type Message struct {
	From int
	Kind MsgKind
	// Map is the buffer-availability announcement (msgMap, msgConnectOK).
	Map *buffer.Map
	// Gossip piggybacks membership gossip on a map announcement: peer IDs
	// the sender tells the receiver about (the SCAMP-style channel the
	// simulator's maintenance phase also rides).
	Gossip []int
	// Seg is the segment a request asks for or a data message delivers.
	Seg segment.ID
	// Deadline is the one time-valued field, read per kind: on a request
	// the period in which Seg plays at the requester (the supplier-side
	// EDF key), on data the offset into the period at which the sender's
	// uplink finished the segment (protocol.Uplink.WireAt, the receiver's
	// rate observation), on a rendezvous point's ConnectOK its current
	// period.
	Deadline sim.Time
	// Hop is the push-hop counter on data (0 = pull grant or rescue
	// reply; h >= 1 = eager push, forwarded while h < PushHops).
	Hop int
	// Period is the sender's current session period, stamped on every
	// message a running peer sends (bootstrap Connects go out before a
	// clock exists and carry 0). A socket node re-anchors its period
	// clock to the second-highest stamp its links have sent
	// (peer.networkPeriod) — the continuous re-sync that keeps EDF
	// deadlines and playback positions aligned when a node misses ticks.
	Period int
	// Rescue marks data served in reply to a rescue request.
	Rescue bool
	// GossipAddrs optionally parallels Gossip with transport addresses
	// for the named peers. Peers never set it: the UDP transport fills
	// it from its address book on encode and absorbs it back into the
	// book on decode, so membership gossip stays reachable across
	// process boundaries. In-process it is always nil.
	GossipAddrs []string
}

// network is the in-process Transport and rendezvous: the address book
// every real deployment reaches through its RP server and DHT routing,
// scaled to one process. It belongs to the one goroutine that drives the
// session: Send appends to a single queue in send order and returns, and
// AwaitQuiet hands the queue over, so the order messages are handled in
// is the order they were sent, whatever the host's scheduler does. The
// queue is drained after every phase call, so it holds one call's sends
// and needs no bound. A send to a departed peer is dropped, and the
// protocol's retry/repair paths are what recover, exactly as over UDP.
type network struct {
	// live is the registry by peer ID: true while the ID is registered.
	live []bool
	// queue holds the messages sent and not yet handed over, in send
	// order, from head on.
	queue []envelope
	head  int
}

// envelope is one queued message and its receiver.
type envelope struct {
	to int
	m  Message
}

func newNetwork() *network { return &network{} }

// register allocates the next peer ID (one past the last).
func (nw *network) register() int {
	nw.live = append(nw.live, true)
	return len(nw.live) - 1
}

// unregister removes a departed peer; sends to it fail from now on, which
// is how the rest of the mesh eventually notices.
func (nw *network) unregister(id int) {
	nw.live[id] = false
}

// Send queues m for peer to and returns; false means the receiver is gone
// and the message was dropped. It never hands a message over itself: the
// sender may be in the middle of handling one, and what it sends waits
// its turn behind everything sent before it.
func (nw *network) Send(to int, m *Message) bool {
	if to < 0 || to >= len(nw.live) || !nw.live[to] {
		return false
	}
	// Filled in place: an envelope literal would be built on the stack and
	// copied again.
	n := len(nw.queue)
	nw.queue = slices.Grow(nw.queue, 1)[:n+1]
	e := &nw.queue[n]
	e.to = to
	e.m = *m
	return true
}

// AwaitQuiet implements Transport: it hands the queue to deliver in send
// order, including what handling it sends in turn, until nothing is left.
// Each message is handed over in place, as a pointer into its queue slot.
func (nw *network) AwaitQuiet(deliver func(to int, m *Message)) {
	for nw.head < len(nw.queue) {
		i := nw.head
		nw.head++
		deliver(nw.queue[i].to, &nw.queue[i].m)
		// Cleared by index, not through the pointer handed over: the
		// handler's sends may have moved the queue, and the slot that
		// outlives this call is the one in the current backing array.
		nw.queue[i] = envelope{}
	}
	nw.queue, nw.head = nw.queue[:0], 0
}

// Members implements Transport: the registry in ID order, whatever the period.
func (nw *network) Members(int) []int {
	out := make([]int, 0, len(nw.live))
	for id, live := range nw.live {
		if live {
			out = append(out, id)
		}
	}
	return out
}

// sampleIDs draws up to max of members at random, leaving out exclude and
// self — the rendezvous point's ConnectOK sample, the source's refill pool
// and a scripted joiner's first contacts.
func sampleIDs(rng *sim.RNG, members []int, max, exclude, self int) []int {
	out := make([]int, 0, max)
	for _, i := range rng.Perm(len(members)) {
		if len(out) >= max {
			break
		}
		if id := members[i]; id != exclude && id != self {
			out = append(out, id)
		}
	}
	return out
}

// ringOf places a peer ID on the rescue ring: an odd multiplier modulo a
// power of two is a bijection, so consecutive IDs land on well-separated
// arcs and peerOf inverts it. An ID outside [0, ringSpace) would alias an
// in-range one; Config.Validate, NewNode and the UDP address book refuse it.
func ringOf(space dht.Space, id int) dht.ID {
	return dht.ID(uint64(id) * 0x9e3779b1 & uint64(space.N()-1))
}

// peerOf is ringOf's inverse: 0x0e8b2f51 · 0x9e3779b1 ≡ 1 (mod 2³²).
func peerOf(space dht.Space, ring dht.ID) int {
	return int(uint64(ring) * 0x0e8b2f51 & uint64(space.N()-1))
}

// onRing reports whether id has a rescue-ring position of its own.
func onRing(id int) bool { return id >= 0 && id < ringSpace }

// ringMembers places a transport's member list on the rescue ring as one
// dht.Members bitmap, the period's membership for every reader. An ID off
// the ring is nobody's member.
func ringMembers(space dht.Space, ids []int) *dht.Members {
	m := dht.NewMembers(space)
	for _, id := range ids {
		if onRing(id) {
			m.Add(ringOf(space, id))
		}
	}
	return &m
}
