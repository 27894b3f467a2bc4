// Package livenet runs the streaming protocol over real message passing,
// with a wall-clock ticker driving scheduling periods (scaled down so
// demos finish in seconds). One session loop runs every period. Run hosts
// a whole mesh in it on one goroutine, its messages queued in send order
// and handed over between phase calls, so a seed replays the same
// session; Node.Run hosts one peer over a UDP socket, on the goroutine
// that also reads that socket, its only one. It is the repro of the paper's planned
// PlanetLab deployment — and it drives the same transport-agnostic
// decision core (internal/protocol) as the deterministic simulator: mesh
// repair under churn (PlanRewire + GossipPicks), rescue of urgent holes
// from a ring-hashed peer's buffer (the urgent-line prediction; no VoD
// backup, see EXPERIMENTS.md "Livenet ring"), fresh-segment push
// (PlanPushMask), pull scheduling over word-aligned neighbour maps
// (scheduler.Enumeration + Algorithm 1) and supplier-side EDF serving
// with bounded carry queues (PlanServe). Only the input assembly and the
// transport differ; the decisions are the shared code paths, which is
// what the sim↔livenet parity tests pin.
package livenet

import (
	"context"
	"math"
	"time"

	"continustreaming/internal/dht"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// ringSpace is the rescue ring's identifier space and the bound on peer
// IDs: the edges that admit IDs turn away any the ring cannot place.
const ringSpace = 1 << 14

// Stats summarises a finished session.
type Stats struct {
	// Periods is how many scheduling periods ran.
	Periods int
	// Delivered counts segment deliveries (first copies) across all peers.
	Delivered int64
	// Continuity is the fraction of peer-periods in which a peer held
	// every segment due that period; PerPeriod is its per-period trace
	// (one entry per evaluated period, i.e. from PlaybackLagPeriods on).
	Continuity float64
	PerPeriod  []float64
	// PushDelivered counts first copies that arrived via the eager push,
	// Rescued via rescue replies (RescueAsked the attempts).
	PushDelivered int64
	Rescued       int64
	RescueAsked   int64
	// QueueServed counts grants served out of supplier carry queues;
	// QueueCarried the requests carried across a period boundary.
	QueueServed  int64
	QueueCarried int64
	// DeadDropped counts neighbour links dropped because the far side
	// died; Replaced counts low-supply replacements.
	DeadDropped int64
	Replaced    int64
	// Killed and Joined count scripted churn events applied.
	Killed int
	Joined int
	// EndDeadLinks counts links still pointing at dead peers — gone from
	// the membership view, or silent beyond DeadAfterPeriods — when the
	// session drained: zero when mesh repair kept up with the churn.
	EndDeadLinks int
	// AsksSent/AsksReceived/GrantsSent/GrantsEvicted trace the pull
	// funnel: requests scheduled, requests that reached a supplier, data
	// grants transmitted, and requests the service discipline abandoned.
	AsksSent      int64
	AsksReceived  int64
	GrantsSent    int64
	GrantsEvicted int64
	// Loss accounting on the socket path, separable by mechanism so a CI
	// gate (or a human reading the stats line) can tell WAN loss from
	// local trouble: TransportDropped counts datagram writes the node's
	// own socket refused (what arrives waits in the kernel's socket
	// buffer, and a datagram that overflows it is the network's loss,
	// counted by the kernel), ShapeDropped datagrams the traffic shaper
	// consumed as injected link loss, ShapeDelayed datagrams it released
	// late (latency, jitter or bandwidth queueing). A datagram carries
	// every frame a node sent one peer between two waits, so it is one
	// message or several. Resyncs counts clock re-anchor jumps taken. All
	// four are zero on the in-process path.
	TransportDropped int64
	ShapeDropped     int64
	ShapeDelayed     int64
	Resyncs          int
	// BehindPeriods counts scheduling ticks at which this node's period
	// counter trailed the period its links vouch for: the second-highest
	// period stamp its linked neighbours have sent (the one link's, with
	// one link; an unlinked sender's stamp never counts, so no single
	// frame can move it) — the liveness drift a stalled node accumulates.
	// Every such tick re-syncs at once, so it always equals Resyncs.
	BehindPeriods int
}

// TailContinuity returns the mean of the last n per-period continuity
// samples (all of them when fewer exist) — the recovery metric the churn
// scenarios assert on.
func (s Stats) TailContinuity(n int) float64 {
	if len(s.PerPeriod) == 0 {
		return 0
	}
	if n > len(s.PerPeriod) {
		n = len(s.PerPeriod)
	}
	sum := 0.0
	for _, v := range s.PerPeriod[len(s.PerPeriod)-n:] {
		sum += v
	}
	return sum / float64(n)
}

// Run executes a live session for the given number of periods and returns
// its stats. The source emits cfg.Rate fresh segments per period and
// push-seeds them; peers exchange maps with piggybacked membership
// gossip, schedule with the paper's urgency+rarity policy, pull, serve
// EDF with carry queues, repair their meshes, and rescue urgent holes
// from ring-hashed peers' buffers. The session runs on the calling
// goroutine and reads the clock only to pace its periods, so the Stats
// are those of the same session ticked back to back. Run blocks until the
// session drains; it has no error return, so cfg must already pass Validate.
func Run(ctx context.Context, cfg Config, periods int) Stats {
	s := newSession(cfg)
	ticker := time.NewTicker(s.cfg.Period)
	defer ticker.Stop()
	for period := 0; period < periods; period++ {
		select {
		case <-ctx.Done():
		case <-ticker.C:
		}
		if ctx.Err() != nil {
			break
		}
		s.tick(period)
	}
	return s.result()
}

// session is the one period loop of the livenet: it drives the peers this
// process hosts through the phases of each scheduling period over a
// Transport and tallies their playback. Run hosts the whole mesh over the
// in-process queue; Node.Run hosts its one peer over UDP. What differs
// between the two is the transport's answers — who is a member, and
// whether a phase's messages can be handed over before the next phase —
// and what only a socket node has: the bootstrap handshake, its clock and
// re-sync, datagrams handed over as they arrive, and the half-period wait
// between plan and serve that stands in for a barrier no socket can give.
type session struct {
	cfg   Config
	space dht.Space
	tr    Transport
	// peers is indexed by peer ID (nil: not hosted); its walk is the sweep order.
	peers []*peer
	// deliverFn is deliver, bound once: the sweeps hand it to AwaitQuiet
	// after every phase call, and a method value made per call allocates.
	deliverFn func(int, *Message)
	// nw, rng and churnAt (the scripted churn by period) belong to a
	// whole-mesh session: churn registers and unregisters peers on the
	// in-process transport itself.
	nw      *network
	rng     *sim.RNG
	churnAt map[int][]ChurnEvent
	// pos is the shared playback position.
	pos segment.ID
	// stats is what the session returns; its hosted peers count into it.
	stats Stats
	// scratch is the plan and serve storage its peers share (planScratch).
	scratch planScratch
	// continuous / playing tally the playback samples behind
	// Stats.Continuity.
	continuous, playing int
}

// hostSession returns a session over tr that hosts no peer yet.
func hostSession(cfg Config, tr Transport) *session {
	s := &session{cfg: cfg, space: dht.NewSpace(ringSpace), tr: tr}
	s.deliverFn = s.deliver
	return s
}

// newSession builds the mesh: the source and cfg.Peers receivers, wired
// by the RP's initial contact lists.
func newSession(cfg Config) *session {
	cfg = cfg.fitAudience()
	nw := newNetwork()
	s := hostSession(cfg, nw)
	s.nw, s.rng, s.churnAt = nw, sim.DeriveRNG(cfg.Seed, 0x11fe), make(map[int][]ChurnEvent)
	s.join(true, 0, 0)
	for i := 0; i < cfg.Peers; i++ {
		s.join(false, 0, 0)
	}
	// Bootstrap wiring (the RP's initial contact lists): every peer links
	// to cfg.M others, the first M of them to the source so
	// content has an exit. Links are installed directly on both sides —
	// this is the session's construction, not a protocol message.
	connect := func(a, b int) {
		if a != b {
			s.peers[a].link(b, 0)
			s.peers[b].link(a, 0)
		}
	}
	for i := 1; i <= cfg.Peers; i++ {
		if i <= cfg.M {
			connect(i, 0)
		}
		for len(s.peers[i].nbrs) < cfg.M {
			connect(i, 1+s.rng.Intn(cfg.Peers))
		}
	}
	for _, ev := range cfg.Churn {
		s.churnAt[ev.Period] = append(s.churnAt[ev.Period], ev)
	}
	return s
}

// spawn hosts a peer on a transport-provided identity and returns it.
func (s *session) spawn(id int, isSource bool, openAt segment.ID, joinPeriod int) *peer {
	p := newPeer(s.tr, id, s.cfg, s.space, &s.stats, isSource, openAt, joinPeriod, &s.scratch)
	if id >= len(s.peers) {
		s.peers = append(s.peers, make([]*peer, id+1-len(s.peers))...)
	}
	s.peers[id] = p
	return p
}

// join registers the next peer on the in-process transport and spawns it.
func (s *session) join(isSource bool, openAt segment.ID, joinPeriod int) *peer {
	return s.spawn(s.nw.register(), isSource, openAt, joinPeriod)
}

// kill takes a peer off the in-process transport without a goodbye: what
// is queued for it is never handled, and sends to it fail from now on.
func (s *session) kill(id int) {
	s.nw.unregister(id)
	s.peers[id] = nil
	s.stats.Killed++
}

// deliver hands m to the peer it is addressed to, unless that peer has
// been killed since m was sent.
func (s *session) deliver(to int, m *Message) {
	if p := s.peers[to]; p != nil {
		p.handle(m)
	}
}

// churn applies one period's scripted events: abrupt kills first
// (silence, not goodbyes), then rendezvous-path joins, whose handshakes
// complete before the period plans — a burst of joiners all registered
// before any Connect is handled, so the RP's samples name one another.
func (s *session) churn(period int) {
	for _, ev := range s.churnAt[period] {
		if ev.KillFraction > 0 {
			var victims []int
			for id, p := range s.peers {
				if p != nil && id != 0 {
					victims = append(victims, id)
				}
			}
			s.rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
			kill := int(math.Round(ev.KillFraction * float64(len(victims))))
			for _, id := range victims[:min(kill, len(victims))] {
				s.kill(id)
			}
		}
		for j := 0; j < ev.Join; j++ {
			np := s.join(false, s.pos, period)
			for _, c := range sampleIDs(s.rng, s.nw.Members(period), s.cfg.M+2, np.id, np.id) {
				s.nw.Send(c, &Message{From: np.id, Kind: msgConnect})
			}
			s.stats.Joined++
		}
	}
	s.nw.AwaitQuiet(s.deliverFn)
}

// tick runs one scheduling period for the whole mesh.
func (s *session) tick(period int) {
	s.churn(period)
	s.plan(period)
	s.serve(period)
}

// plan runs the period's three planning phases over the transport's
// membership view, placed on the rescue ring once for every hosted peer.
func (s *session) plan(period int) {
	members := ringMembers(s.space, s.tr.Members(period))
	s.pos = s.cfg.posFor(period)
	s.sweep(func(p *peer) { p.periodBegin(period, s.pos, members) })
	s.sweep((*peer).periodAnnounce)
	s.sweep((*peer).periodSchedule)
}

// sweep runs one phase of the period over every hosted peer in ID order,
// and after each peer's call lets the transport hand over what the call
// sent (and what handling it sent in turn: push forwards, connect
// replies). A period is four such sweeps — begin (the source pushes),
// announce, schedule, serve — the simulator's push → exchange → schedule →
// serve → playback round order over real messages. Each phase reads what
// the one before it sent, which the hand-over after every call makes
// true; it also lets a peer see what lower IDs sent earlier in the same
// sweep, the zero-latency limit of peers running side by side. Handing
// over once at the end of a sweep instead doubles the replacements a
// churned session makes (EXPERIMENTS.md "Livenet delivery").
func (s *session) sweep(phase func(*peer)) {
	for _, p := range s.peers {
		if p != nil {
			phase(p)
			s.tr.AwaitQuiet(s.deliverFn)
		}
	}
}

// serve runs the period's serve phase and, once the grants have landed,
// evaluates playback.
func (s *session) serve(period int) {
	cfg := s.cfg
	s.sweep((*peer).periodServe)
	s.stats.Periods = period + 1

	// Playback bookkeeping after the pipeline warm-up: the simulator's
	// apply → playback order, so a segment granted for this period's
	// window counts as played, not as still in an inbox.
	if period < cfg.PlaybackLagPeriods {
		return
	}
	win := segment.Window{Lo: s.pos, Hi: s.pos + segment.ID(cfg.Rate)}
	periodContinuous, periodPlaying := 0, 0
	for _, p := range s.peers {
		if p == nil || p.isSource {
			continue
		}
		periodPlaying++
		if p.evalPlayback(win) {
			periodContinuous++
		}
	}
	s.playing += periodPlaying
	s.continuous += periodContinuous
	if periodPlaying > 0 {
		s.stats.PerPeriod = append(s.stats.PerPeriod, float64(periodContinuous)/float64(periodPlaying))
	}
}

// result returns the session's stats. The socket transport's own counters
// are Node.Run's to add.
func (s *session) result() Stats {
	stats := s.stats
	if s.playing > 0 {
		stats.Continuity = float64(s.continuous) / float64(s.playing)
	}
	for _, p := range s.peers {
		if p == nil || p.members == nil {
			continue // gone, or never began a period: no view to judge a link by
		}
		for i := range p.nbrs {
			if p.dead(&p.nbrs[i], p.curPeriod) {
				stats.EndDeadLinks++
			}
		}
	}
	return stats
}
