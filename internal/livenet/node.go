package livenet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"continustreaming/internal/dht"
	"continustreaming/internal/segment"
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

// Node is one process's half-open session: socket bound, peer built,
// not yet running. Splitting construction from Run lets the caller
// learn the bound address (to print, or to hand the driver) before the
// clock starts.
type Node struct {
	cfg   Config
	nc    NodeConfig
	tr    *udpTransport
	st    *counters
	space dht.Space
}

// NewNode binds the node's socket. The peer itself is built inside Run,
// after the bootstrap handshake has synced the session clock.
func NewNode(cfg Config, nc NodeConfig) (*Node, error) {
	if nc.ID < 0 {
		return nil, fmt.Errorf("livenet: negative node ID %d", nc.ID)
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
	tr, err := newUDPTransport(nc.Listen, nc.ID, cfg.inboxCap(nc.Source))
	if err != nil {
		return nil, err
	}
	tr.setShaper(NewShaper(profile, nc.ShapeSeed, nc.ID))
	if nc.LogEvery <= 0 {
		nc.LogEvery = 10
	}
	return &Node{cfg: cfg, nc: nc, tr: tr, st: &counters{}, space: dht.NewSpace(ringSpace)}, nil
}

// Addr returns the bound UDP address.
func (n *Node) Addr() string { return n.tr.LocalAddr() }

// Close releases the socket (Run closes it on return; Close is for
// callers that abandon a node before running it).
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
// in the bootstrap handshake). It blocks until the node drains, the
// scripted ExitAt fires, or ctx is cancelled.
func (n *Node) Run(ctx context.Context, periods int) (Stats, error) {
	defer n.tr.Close()
	cfg, nc := n.cfg, n.nc

	start := 0
	var p *peer
	var backlog []Message
	if nc.Source {
		p = newPeer(n.tr, 0, n.tr.Inbox(), cfg, n.space, n.st, true, 0, 0)
		p.nodeMode = true
		p.rpServer = true
		p.sample = p.sightedSample
	} else {
		// Bootstrap handshake: Connect to the RP until its ConnectOK
		// arrives, carrying the current session period (our clock sync),
		// the RP's buffer map, and a membership sample whose addresses
		// the transport has absorbed. Messages that race ahead of the
		// handshake (the RP links us immediately, so its announcements
		// and pushes start at once) are replayed into the peer after
		// construction.
		if err := n.tr.Learn(0, nc.Bootstrap); err != nil {
			return Stats{}, err
		}
		var hello *Message
		for attempt := 0; hello == nil; {
			n.tr.Send(0, Message{From: nc.ID, Kind: msgConnect})
			tick := time.NewTimer(bootstrapTick)
		recv:
			for hello == nil {
				select {
				case <-ctx.Done():
					tick.Stop()
					return Stats{}, ctx.Err()
				case <-tick.C:
					if attempt++; attempt >= bootstrapAttempts {
						return Stats{}, fmt.Errorf("livenet: no ConnectOK from %s after %d attempts", nc.Bootstrap, attempt)
					}
					break recv
				case m := <-n.tr.Inbox():
					if m.Kind == msgConnectOK && m.From == 0 {
						hello = &m
					} else if len(backlog) < 1024 {
						backlog = append(backlog, m)
					}
				}
			}
			tick.Stop()
		}
		start = int(hello.Deadline) + 1
		p = newPeer(n.tr, nc.ID, n.tr.Inbox(), cfg, n.space, n.st, false, cfg.posFor(start), start)
		p.nodeMode = true
		p.handle(*hello)
		for _, m := range backlog {
			p.handle(m)
		}
		// First adoptions from the RP's sample; mesh maintenance tops the
		// degree up from gossip once the session is rolling.
		p.mu.Lock()
		dial := make([]int, 0, len(p.overheard))
		for id := range p.overheard {
			dial = append(dial, id)
		}
		p.mu.Unlock()
		sort.Ints(dial)
		if len(dial) > cfg.M {
			dial = dial[:cfg.M]
		}
		for _, id := range dial {
			n.tr.Send(id, Message{From: nc.ID, Kind: msgConnect})
		}
	}

	var wg sync.WaitGroup
	stopped := false
	stop := func() {
		if !stopped {
			close(p.stop)
			stopped = true
		}
	}
	defer stop()
	wg.Add(1)
	go p.loop(&wg)

	ticker := time.NewTicker(cfg.Period)
	defer ticker.Stop()
	stats := Stats{}
	continuous, playingSamples := 0, 0
	lag := cfg.PlaybackLagPeriods
	for period := start; period < periods; period++ {
		select {
		case <-ctx.Done():
		case <-ticker.C:
		}
		if ctx.Err() != nil {
			break
		}
		// Clock re-sync: if the network's newest period stamp is ahead of
		// this node's counter, the node missed ticks (scheduler stall,
		// loss-delayed handshake, slow period work) — jump forward and
		// re-phase the ticker at the new anchor. In steady state the
		// stamps match the local counter and no jump happens; stamps
		// behind ours (a slower peer's) never move the clock backwards.
		if p.clockPeriod() > period {
			stats.BehindPeriods++
		}
		if cfg.Resync {
			if seen := p.clockPeriod(); seen > period {
				if seen >= periods {
					seen = periods - 1
				}
				if nc.Logf != nil {
					nc.Logf("resync: period %d -> %d", period, seen)
				}
				period = seen
				p.mu.Lock()
				p.resyncs++
				p.mu.Unlock()
				ticker.Reset(cfg.Period)
			}
		}
		stats.Periods = period + 1 - start
		if nc.ExitAt > 0 && period >= nc.ExitAt {
			// Abrupt scripted failure: drop off the network mid-stream.
			n.tr.Close()
			return stats, nil
		}

		if nc.Source {
			p.ingestFresh(period)
		}
		pos := cfg.posFor(period)
		members := p.membershipView(period)
		ids := make([]int, 0, len(members))
		for id := range members {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		rv := newRingView(n.space, ids)

		// Plan at the tick, serve half a period later: the temporal
		// stand-in for the driver's barriers between phases. A node
		// cannot count what is in flight across real sockets, so it
		// runs the planning phases back to back and gives this period's
		// requests half a period to reach their suppliers before the
		// serve phase drains them.
		p.periodPlan(period, pos, rv, members)
		half := time.NewTimer(cfg.Period / 2)
		select {
		case <-ctx.Done():
		case <-half.C:
		}
		half.Stop()
		if ctx.Err() != nil {
			break
		}
		p.periodServe()

		if !nc.Source && period >= lag {
			ok := p.evalPlayback(segment.Window{Lo: pos, Hi: pos + segment.ID(cfg.Rate)})
			playingSamples++
			sample := 0.0
			if ok {
				continuous++
				sample = 1
			}
			stats.PerPeriod = append(stats.PerPeriod, sample)
			if nc.Logf != nil && period%nc.LogEvery == 0 {
				nc.Logf("period %d: pos=%d links=%d members=%d continuous=%v",
					period, pos, p.linkCount(), len(members), ok)
			}
		} else if nc.Logf != nil && period%nc.LogEvery == 0 {
			nc.Logf("period %d: links=%d members=%d", period, p.linkCount(), len(members))
		}
	}
	stop()
	wg.Wait()

	n.st.fill(&stats)
	stats.TransportDropped = n.tr.Dropped()
	stats.ShapeDropped = n.tr.shaper.Dropped()
	stats.ShapeDelayed = n.tr.shaper.Delayed()
	if playingSamples > 0 {
		stats.Continuity = float64(continuous) / float64(playingSamples)
	}
	p.mu.Lock()
	for _, nb := range p.nbrs {
		if p.curPeriod-nb.seen > p.cfg.DeadAfterPeriods {
			stats.EndDeadLinks++
		}
	}
	stats.Resyncs = p.resyncs
	p.mu.Unlock()
	if nc.Logf != nil {
		nc.Logf("drained: %d deliveries, %d inbox drops", stats.Delivered, n.tr.Dropped())
	}
	return stats, nil
}

// linkCount is the peer's current degree, for the node's progress log.
func (p *peer) linkCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.nbrs)
}

// ingestFresh is the source's per-period segment generation.
func (p *peer) ingestFresh(period int) {
	p.mu.Lock()
	for s := segment.ID(period * p.cfg.Rate); s < segment.ID((period+1)*p.cfg.Rate); s++ {
		p.buf.Insert(s)
	}
	p.mu.Unlock()
}

// membershipView is the socket path's replacement for the registry
// oracle: every peer this node has recent evidence of — a message
// received or gossip naming it within the sighting TTL — plus itself
// and the source (losing the source ends the session, not the
// membership). Direct neighbours are still judged by the tighter
// DeadAfterPeriods silence bound in mesh maintenance; this wider view
// gates adoption, serving and ring placement.
func (p *peer) membershipView(now int) map[int]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	ttl := p.sightTTL()
	view := map[int]bool{p.id: true, 0: true}
	for id, seen := range p.sighted {
		if now-seen <= ttl {
			view[id] = true
		}
	}
	return view
}

// sightTTL is how many periods a sighting stays membership evidence —
// comfortably wider than the direct-neighbour silence bound so gossip
// reach outlives a couple of dropped announcements, but finite so
// departed (or fabricated) IDs age out of the view, the sample pool,
// and the sighted map itself.
func (p *peer) sightTTL() int { return 3 * p.cfg.DeadAfterPeriods }

// sightedSample draws up to max recently-sighted peer IDs, excluding
// the given ID and the sampler itself — node mode's version of the
// registry sample behind RP candidate pools and bootstrap replies.
// Callers hold p.mu (it runs inside handle and maintainMesh).
func (p *peer) sightedSample(max, exclude int) []int {
	ttl := p.sightTTL()
	ids := make([]int, 0, len(p.sighted))
	for id, seen := range p.sighted {
		if id != exclude && id != p.id && p.curPeriod-seen <= ttl {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	p.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if len(ids) > max {
		ids = ids[:max]
	}
	return ids
}
