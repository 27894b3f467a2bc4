package livenet

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// MsgKind discriminates the protocol messages peers exchange.
type MsgKind uint8

// The livenet wire protocol: the periodic buffer-map exchange (with
// piggybacked membership gossip), pull requests and data grants, the
// DHT-backed rescue pair, and the mesh-repair control messages.
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
	// uplink finished the segment (peer.wireAt, the receiver's rate
	// observation), on a rendezvous point's ConnectOK its current period.
	Deadline sim.Time
	// Hop is the push-hop counter on data (0 = pull grant or rescue
	// reply; h >= 1 = eager push, forwarded while h < PushHops).
	Hop int
	// Period is the sender's current session period, stamped on every
	// message a running peer sends (bootstrap Connects go out before a
	// clock exists and carry 0). Receivers re-anchor their period clock
	// to the max stamp heard — the continuous re-sync that keeps EDF
	// deadlines and playback positions aligned when a node misses ticks.
	Period int
	// Rescue marks data served from the DHT backup path.
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
// scaled to one process. Sends are non-blocking — a saturated or dead
// receiver drops the message, and the protocol's retry/repair paths are
// what recover, exactly as over UDP (the drop model udpTransport
// mirrors).
type network struct {
	mu      sync.RWMutex
	inboxes map[int]chan Message
	nextID  int

	// sent counts the messages accepted into an inbox and handled those
	// their receivers are done with (Transport.Handled); the difference is
	// what is in flight. Messages are sent by the driver goroutine and by
	// peers in the middle of handling one, so once the driver stops
	// sending, equality means the whole session is quiet. quiet carries
	// the wake-up for a driver parked in AwaitQuiet (waiting).
	sent    atomic.Int64
	handled atomic.Int64
	waiting atomic.Bool
	quiet   chan struct{}
	// dropped counts messages discarded because the receiver's inbox was
	// full — overload made visible; a vanished receiver is churn, not a
	// drop.
	dropped atomic.Int64
}

func newNetwork() *network {
	return &network{inboxes: make(map[int]chan Message), quiet: make(chan struct{}, 1)}
}

// register allocates the next peer ID and its inbox.
func (nw *network) register(inboxCap int) (int, chan Message) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	id := nw.nextID
	nw.nextID++
	ch := make(chan Message, inboxCap)
	nw.inboxes[id] = ch
	return id, ch
}

// unregister removes a departed peer; sends to it fail from now on, which
// is how the rest of the mesh eventually notices.
func (nw *network) unregister(id int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	delete(nw.inboxes, id)
}

// Send delivers non-blockingly; false means the receiver is gone or
// saturated and the message was dropped. The registry lock is held across
// the channel operation, so nothing enters an inbox after unregister
// returns — a stopping peer's leftover count is exact.
func (nw *network) Send(to int, m Message) bool {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	ch, ok := nw.inboxes[to]
	if !ok {
		return false
	}
	// Counted before the message can be received, so handled never runs
	// ahead of sent.
	nw.sent.Add(1)
	select {
	case ch <- m:
		return true
	default:
		nw.sent.Add(-1)
		nw.dropped.Add(1)
		return false
	}
}

// Handled implements Transport.
func (nw *network) Handled(n int) {
	if nw.handled.Add(int64(n)) == nw.sent.Load() && nw.waiting.Load() {
		select {
		case nw.quiet <- struct{}{}:
		default:
		}
	}
}

// AwaitQuiet implements Transport on the in-flight count. Only the session
// driver calls it, between its own sends.
func (nw *network) AwaitQuiet(bound time.Duration) {
	if nw.handled.Load() == nw.sent.Load() {
		return
	}
	nw.waiting.Store(true)
	defer nw.waiting.Store(false)
	timer := time.NewTimer(bound)
	defer timer.Stop()
	for nw.handled.Load() != nw.sent.Load() {
		select {
		case <-nw.quiet:
		case <-timer.C:
			return
		}
	}
}

// Members implements Transport: the registry, whatever the period.
func (nw *network) Members(int) []int {
	nw.mu.RLock()
	out := make([]int, 0, len(nw.inboxes))
	for id := range nw.inboxes {
		out = append(out, id)
	}
	nw.mu.RUnlock()
	sort.Ints(out)
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

// ringView is one period's snapshot of the rescue ring: every member's
// position in the DHT identifier space, sorted clockwise. Peers derive
// their backup responsibility (successor arc) and rescue targets (key
// owners) from it — the livenet stand-in for the structured overlay's
// routed lookups, scaled to one process.
type ringView struct {
	space dht.Space
	ids   []int    // member peer IDs, sorted by ring position
	rings []dht.ID // ring positions, ascending
}

// ringOf spreads peer IDs uniformly over the identifier space: an odd
// multiplier modulo a power of two is a bijection, so consecutive peer
// IDs land on well-separated ring arcs.
func ringOf(space dht.Space, id int) dht.ID {
	return dht.ID(uint64(id) * 0x9e3779b1 & uint64(space.N()-1))
}

// newRingView builds the snapshot from a transport's member list.
func newRingView(space dht.Space, members []int) ringView {
	type pos struct {
		id   int
		ring dht.ID
	}
	ps := make([]pos, len(members))
	for i, id := range members {
		ps[i] = pos{id: id, ring: ringOf(space, id)}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].ring != ps[j].ring {
			return ps[i].ring < ps[j].ring
		}
		return ps[i].id < ps[j].id
	})
	rv := ringView{space: space, ids: make([]int, len(ps)), rings: make([]dht.ID, len(ps))}
	for i, p := range ps {
		rv.ids[i] = p.id
		rv.rings[i] = p.ring
	}
	return rv
}

// successor returns the clockwise next ring position after ring (the arc
// bound the backup rule needs), or false with fewer than two members.
func (rv ringView) successor(ring dht.ID) (dht.ID, bool) {
	if len(rv.rings) < 2 {
		return 0, false
	}
	i := sort.Search(len(rv.rings), func(i int) bool { return rv.rings[i] > ring })
	if i == len(rv.rings) {
		i = 0
	}
	return rv.rings[i], true
}

// owner returns the peer responsible for a key: the one whose arc
// (predecessor, self] contains it — i.e. the first member at or clockwise
// after the key.
func (rv ringView) owner(key dht.ID) (int, bool) {
	if len(rv.ids) == 0 {
		return 0, false
	}
	i := sort.Search(len(rv.rings), func(i int) bool { return rv.rings[i] >= key })
	if i == len(rv.rings) {
		i = 0
	}
	return rv.ids[i], true
}
