package livenet

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// NodeConfig places one peer of a multi-process session: which process
// this is, where it listens, and how it finds the rendezvous point.
// Every other protocol parameter comes from the shared Config, so a
// socket-path node and an in-process peer run the same protocol with
// the same defaults.
type NodeConfig struct {
	// ID is this process's peer identity. The source/RP is ID 0 by
	// protocol convention (the maintenance rules treat node 0 as the
	// root); receivers use any distinct positive IDs.
	ID int
	// Listen is the UDP address to bind ("host:port", port 0 picks a
	// free one; the bound address is available as Node.Addr).
	Listen string
	// Bootstrap is the rendezvous point's address. Empty means this
	// node IS the rendezvous point (which must be the source, ID 0).
	Bootstrap string
	// Source marks the stream emitter.
	Source bool
	// ExitAt, when positive, makes the node fail abruptly at the start
	// of that period: no goodbye, socket closed, process of the kill
	// scenarios. Neighbours discover the silence.
	ExitAt int
	// Shape applies WAN conditions to every datagram this node sends:
	// a ShapeProfile flag string ("loss=2%,latency=50ms,jitter=20ms",
	// see ParseShapeProfile). Empty runs a clean network. Shaping is
	// egress-side, so giving every node of a session the same profile
	// shapes every link once.
	Shape string
	// ShapeSeed seeds the shaper's per-(src,dst) RNG streams: a fixed
	// seed replays the exact same drop/delay sequence, which is what
	// makes a shaped CI failure reproducible. Independent of the
	// protocol Seed so shaping can vary while decisions hold still.
	ShapeSeed uint64
	// Logf, when set, receives progress lines (LogEvery periods apart;
	// default 10).
	Logf     func(format string, args ...any)
	LogEvery int
}

// Node is one process's half-open session: socket bound, peer not yet
// built. Splitting construction from Run lets the caller learn the bound
// address (to print, or to hand the driver) before the clock starts.
type Node struct {
	cfg Config
	nc  NodeConfig
	tr  *udpTransport
}

// NewNode binds the node's socket. The peer itself is built inside Run,
// after the bootstrap handshake has synced the session clock.
func NewNode(cfg Config, nc NodeConfig) (*Node, error) {
	if !onRing(nc.ID) {
		return nil, fmt.Errorf("livenet: node ID %d outside the rescue ring [0, %d)", nc.ID, ringSpace)
	}
	if nc.Source != (nc.ID == 0) {
		return nil, fmt.Errorf("livenet: the source must be node 0 (got id=%d source=%v)", nc.ID, nc.Source)
	}
	if (nc.Bootstrap == "") != nc.Source {
		return nil, fmt.Errorf("livenet: exactly the source runs without a bootstrap address")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.fitAudience()
	profile, err := ParseShapeProfile(nc.Shape)
	if err != nil {
		return nil, err
	}
	tr, err := newUDPTransport(nc.Listen, nc.ID, cfg.sightTTL())
	if err != nil {
		return nil, err
	}
	tr.shaper = NewShaper(profile, nc.ShapeSeed, nc.ID)
	if nc.LogEvery <= 0 {
		nc.LogEvery = 10
	}
	if nc.Logf == nil {
		nc.Logf = func(string, ...any) {}
	}
	return &Node{cfg: cfg, nc: nc, tr: tr}, nil
}

// Addr returns the bound UDP address.
func (n *Node) Addr() string { return n.tr.LocalAddr() }

// Close releases the socket. Run closes it on return; Close is for
// callers that abandon a node before running it, or that stop a running
// one from another goroutine, which makes its Run return.
func (n *Node) Close() error { return n.tr.Close() }

// The join handshake retries its Connect until the RP's ConnectOK
// arrives: up to bootstrapAttempts sends, one per bootstrapTick.
const (
	bootstrapAttempts = 100
	bootstrapTick     = 100 * time.Millisecond
)

// Run executes this process's side of the session until the absolute
// session period count is reached (period numbering is shared across
// processes: the source starts at 0 and joiners sync to the RP's clock
// in the bootstrap handshake). It hosts the node's one peer in a session
// over the socket, on the calling goroutine, which is the node's only
// one. What Run adds is a socket node's own: the handshake, the period
// clock and its re-sync, the scripted exit, and the half-period wait
// before serving. Its deadlines — the bootstrap retry, the next tick and
// the serve — bound one blocking read of the socket, which the transport
// also ends at the earliest datagram the shaper holds back. Each wake-up
// reads the clock once, stamps the transport with it and releases the
// datagrams due by then, then hands a frame over or, when the read timed
// out, handles the deadline; what the wake-ups sent leaves before the node
// waits again, one datagram a peer (receive flushes once the datagram read
// last has no frame left). Run blocks until the node drains, the scripted
// ExitAt fires, ctx is cancelled or the node is closed; a cancel closes
// the socket, which is what ends the read.
func (n *Node) Run(ctx context.Context, periods int) (Stats, error) {
	defer n.tr.Close()
	defer context.AfterFunc(ctx, func() { n.tr.Close() })()
	cfg, nc := n.cfg, n.nc
	s := hostSession(cfg, n.tr)

	// The deadlines, zero when not set: the bootstrap retry until the RP's
	// ConnectOK arrives, the next tick from then on, and the serve half a
	// period after each tick's plan. A tick waits while a serve is set, so
	// one that falls due in between fires once the serve is done.
	var retryAt, tickAt, serveAt time.Time
	// stamp is a wake-up's one clock reading, handed to the transport.
	var now time.Time
	stamp := func() { now = time.Now(); n.tr.advance(now) }
	due := func(d time.Time) bool { return !d.IsZero() && !now.Before(d) }
	stamp()

	var p *peer
	start, period, attempt, resyncs := 0, 0, 0, 0
	// deliver takes the datagrams: the session's peer once it exists, and
	// before that the handshake's collector of hello (the RP's ConnectOK)
	// and the backlog that raced ahead of it.
	deliver := s.deliverFn
	var hello *Message
	var backlog []Message
	if nc.Source {
		p = s.spawn(0, true, 0, 0)
		tickAt = now.Add(cfg.Period)
	} else {
		// Bootstrap handshake: Connect to the RP, again every bootstrapTick,
		// until its ConnectOK arrives (see join).
		if err := n.tr.Learn(0, nc.Bootstrap); err != nil {
			return Stats{}, err
		}
		deliver = func(_ int, m *Message) {
			if hello == nil && m.Kind == msgConnectOK && m.From == 0 {
				h := *m
				hello = &h
			} else if len(backlog) < 1024 {
				backlog = append(backlog, *m)
			}
		}
		n.tr.Send(0, &Message{From: nc.ID, Kind: msgConnect})
		retryAt = now.Add(bootstrapTick)
	}

run:
	for p == nil || period < periods {
		clock := tickAt
		if !serveAt.IsZero() {
			clock = serveAt
		}
		got := n.tr.receive(earliest(retryAt, clock))
		if n.tr.closed.Load() {
			break // cancelled, or closed from another goroutine
		}
		stamp()
		if got {
			n.tr.handOver(deliver)
			if p == nil && hello != nil {
				start = int(hello.Deadline) + 1
				nc.Logf("joined: period %d, on Connect %d", start, attempt+1)
				p = n.join(s, start, hello, backlog)
				period, deliver = start, s.deliverFn
				retryAt, tickAt = time.Time{}, now.Add(cfg.Period)
			}
			continue
		}
		switch {
		case due(retryAt):
			if attempt++; attempt >= bootstrapAttempts {
				return Stats{}, fmt.Errorf("livenet: no ConnectOK from %s after %d attempts", nc.Bootstrap, attempt)
			}
			n.tr.Send(0, &Message{From: nc.ID, Kind: msgConnect})
			retryAt = now.Add(bootstrapTick)
		case due(serveAt):
			serveAt = time.Time{}
			s.serve(period)
			if period%nc.LogEvery == 0 {
				nc.Logf("period %d: links=%d, played %d of %d periods", period, len(p.nbrs), s.continuous, s.playing)
			}
			period++
		case serveAt.IsZero() && due(tickAt):
			// The next tick keeps the clock's phase, and the ticks a
			// stall missed collapse into this one.
			tickAt = tickAt.Add((now.Sub(tickAt)/cfg.Period + 1) * cfg.Period)
			n.tr.AwaitQuiet(deliver) // the stamps queued at the socket
			// Clock re-sync: if the period the node's links vouch for is
			// ahead of its counter, the node missed ticks (scheduler stall,
			// loss-delayed handshake, slow period work) — jump forward and
			// re-phase the clock at the new anchor. In steady state the
			// stamps match the local counter and no jump happens; stamps
			// behind ours (a slower peer's) never move the clock backwards,
			// and one link's stamp alone never moves it unless it is the
			// node's only link (peer.networkPeriod).
			if seen := p.networkPeriod(); seen > period {
				seen = min(seen, periods-1)
				nc.Logf("resync: period %d -> %d", period, seen)
				period = seen
				resyncs++
				tickAt = now.Add(cfg.Period)
			}
			if nc.ExitAt > 0 && period >= nc.ExitAt {
				// Abrupt scripted failure: drop off the network mid-stream.
				n.tr.Close()
				break run
			}
			// Plan at the tick, serve half a period later: the temporal
			// stand-in for the hand-over the in-process queue makes between
			// phases. A node cannot see what is in flight across real
			// sockets, so the planning phases run back to back and this
			// period's requests get half a period to reach their suppliers
			// before the serve phase drains them.
			s.plan(period)
			serveAt = now.Add(cfg.Period / 2)
		}
	}
	n.tr.flush()
	if p == nil {
		if err := ctx.Err(); err != nil {
			return Stats{}, err
		}
		return Stats{}, errors.New("livenet: node closed before it joined")
	}
	stats := s.result()
	// The session counts absolute periods; a node reports the ones it ran.
	stats.Periods = max(0, stats.Periods-start)
	stats.BehindPeriods, stats.Resyncs = resyncs, resyncs
	stats.TransportDropped = n.tr.refused
	stats.ShapeDropped = n.tr.shaper.Dropped()
	stats.ShapeDelayed = n.tr.shaper.Delayed()
	nc.Logf("drained: %d deliveries, %d sends refused, %d frames in %d datagrams",
		stats.Delivered, stats.TransportDropped, n.tr.frames, n.tr.datagrams)
	return stats, nil
}

// earliest returns the earliest of the set deadlines, zero when none is.
func earliest(deadlines ...time.Time) time.Time {
	var e time.Time
	for _, d := range deadlines {
		if !d.IsZero() && (e.IsZero() || d.Before(e)) {
			e = d
		}
	}
	return e
}

// join builds a joiner's peer once the bootstrap handshake has synced its
// clock to start: hello is the RP's ConnectOK — the current session
// period, the RP's buffer map and a membership sample whose addresses the
// transport has absorbed — and backlog what raced ahead of it (the RP
// links the joiner at once, so its announcements and pushes start before
// the peer exists), replayed into the peer after hello.
func (n *Node) join(s *session, start int, hello *Message, backlog []Message) *peer {
	p := s.spawn(n.nc.ID, false, n.cfg.posFor(start), start)
	p.handle(hello)
	for i := range backlog {
		p.handle(&backlog[i])
	}
	// First adoptions from the RP's sample, lowest IDs first; mesh
	// maintenance tops the degree up from gossip once the session is
	// rolling.
	dialed, floor := 0, p.overheardFloor()
	for id, heard := range p.overheard {
		if dialed == n.cfg.M {
			break
		}
		if heard > floor {
			n.tr.Send(id, &Message{From: n.nc.ID, Kind: msgConnect})
			dialed++
		}
	}
	return p
}
