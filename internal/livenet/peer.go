package livenet

import (
	"slices"

	"continustreaming/internal/bandwidth"
	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/prefetch"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// neighbour is one linked peer's row in the peer's neighbour table.
type neighbour struct {
	id int
	// seen is the period of the link's latest sign of life (a map
	// announcement or the connect handshake); mesh repair drops a link
	// silent beyond Config.DeadAfterPeriods.
	seen int
	// m is the neighbour's latest advertised map (Size 0 until one
	// arrives). Its Bits are shared with the sender's other receivers and
	// never written.
	m buffer.Map
	// asked counts the asks sent to this neighbour in the current period.
	// A livenet supplier's reply is credited one period after the ask (see
	// periodBegin), so the tally is handed to the rate controller when the
	// next period begins.
	asked int
	// stamp is the highest period stamp (Message.Period) the neighbour's
	// frames have carried while linked; networkPeriod reads it.
	stamp int
}

// peer is one peer's protocol state: the same per-node architecture the
// simulator hosts (buffer and segment tracker, rate controller,
// urgent-line α; no VoD backup, see rescueUrgent), driven by messages as
// well as by the session's per-period calls. It belongs to the goroutine
// that runs its session: handle and the period calls all run there, on
// either transport, so nothing in it is locked.
type peer struct {
	id       int
	ring     dht.ID
	isSource bool
	tr       Transport
	cfg      Config
	space    dht.Space
	// st is the hosting session's Stats, which the peer counts into.
	st  *Stats
	rng *sim.RNG

	buf *buffer.Buffer
	// seg is the per-segment record of buf's whole window — which pulls
	// and rescues are out, each until its retry period — and slides with
	// it. Unlike the simulator's it spans the buffer, not the fetch span:
	// a peer that lags its source is handed segments past its own fetch
	// edge.
	seg buffer.Track
	// nbrs is the neighbour table: one row per linked peer, ascending by
	// ID; nbrIDs mirrors the IDs in the overlay form the protocol
	// functions take. Both change only through link and unlink.
	nbrs   []neighbour
	nbrIDs []overlay.NodeID
	// overheard is the adoption candidate pool, by peer ID: the period
	// piggybacked membership gossip last named the ID, plus one (0: never,
	// or forgotten since). An ID stays in the pool for Config.sightTTL()
	// periods after it was last named — gossip may come off an open socket,
	// and the expiry bounds what it can make a peer hold — which readers
	// test against overheardFloor, so expiry needs no sweep. The table
	// grows to the highest ID heard, which hear keeps below ringSpace.
	overheard []int32
	ctrl      *bandwidth.Controller
	alpha     *prefetch.Alpha
	// carry is the supplier-side bounded carry queue, rebuilt in place by
	// each serve; asks holds the fresh requests accumulated since the last
	// serve, asksSpare the emptied list the serve pass swaps in.
	carry           []protocol.Request
	asks, asksSpare []protocol.Ask

	curPeriod int
	pos       segment.ID
	// up is the period's outbound ledger, opened at birth and after every
	// serve: pushes, rescue replies and grants charge it. Each data message
	// carries its wire time (Uplink.WireAt) in Deadline, the sender's own
	// claim, which the receiver takes as the arrival offset (receiveData).
	up           protocol.Uplink
	pushReceived int
	repeated     int
	missedLast   bool
	missStreak   int
	lastReplace  int

	// members is the period's membership on the rescue ring (set by
	// periodBegin, read-only, shared by the session's peers): who the peer
	// may adopt, gossip about, serve and rescue from, and its DHT walk.
	members *dht.Members

	// view and rewireScratch are the peer's reusable maintenance seam:
	// the view provider PlanRewire consults past its fast path, and the
	// scratch its pools and intents are carved from.
	view          peerView
	rewireScratch protocol.RewireScratch

	// sc is the plan and serve passes' working storage (planScratch), and
	// serveIn the serve's input, its callbacks bound once in newPeer.
	sc      *planScratch
	serveIn protocol.ServeInput
	// gossip is the latest announce's pick arena (a payload, allocated per
	// announce) and gossipEnd where each neighbour's picks end in it;
	// gossipAt is the neighbour GossipPicks is currently emitting for.
	gossipEnd []int
	gossip    []int
	gossipAt  int

	aliveFn    func(overlay.NodeID) bool
	gossipFn   func(to, about overlay.NodeID)
	askedFn    func(segment.ID) bool
	nbrLacksFn func(overlay.NodeID) uint64
	// pushBase is the first segment of the push frontier nbrLacksFn
	// answers for, set before each PlanPushMask call.
	pushBase segment.ID
	// out is the outgoing message each send site builds and send hands
	// the transport by pointer (see send).
	out Message
}

// planScratch is the working storage of a peer's plan and serve passes.
// Nothing in it outlives the pass that fills it: every buffer is grow-only
// and reset per use, and what a pass returns from it is consumed before
// the pass ends. So the peers a session runs one after another on its
// goroutine share one (session.scratch), which stays warm in cache, where
// each peer's own would be touched once a period.
type planScratch struct {
	// live and words back the candidate enumeration's input — the linked
	// neighbours' maps re-based at the peer's own buffer origin, one run of
	// words per neighbour — and enum is the enumeration itself.
	live  []scheduler.NeighborWords
	words []uint64
	enum  scheduler.Enumeration
	// sched is Algorithm 1's scratch; its request arena is reset before
	// every schedule, after the previous schedule's requests were sent.
	sched scheduler.Scratch
	// serve backs PlanServe's request staging; the granted slice it
	// aliases is consumed before the serve pass returns.
	serve protocol.ServeScratch
	// positions is the supplier-side rarity's position list.
	positions []int
	// rescueIDs backs the urgent-line prediction's missed-ID list.
	rescueIDs []segment.ID
}

// peerView implements protocol.ViewProvider over what this peer learned
// from its messages: supply estimates from the rate controller, the
// gossip-fed overheard pool, the ring's clockwise successors, and —
// for the source — the RP membership sample.
type peerView struct {
	p *peer
}

func (v *peerView) AppendNeighbors(dst []protocol.NeighborSupply) []protocol.NeighborSupply {
	p := v.p
	for _, nb := range p.nbrIDs {
		s := protocol.NeighborSupply{ID: nb, Known: p.ctrl.Known(int(nb))}
		if s.Known {
			s.Supply = p.ctrl.Supply(int(nb))
		}
		dst = append(dst, s)
	}
	return dst
}

func (v *peerView) AppendOverheard(dst []protocol.CandidateSource) []protocol.CandidateSource {
	p := v.p
	floor := p.overheardFloor()
	for id, heard := range p.overheard {
		if heard <= floor {
			continue
		}
		// Livenet links have no measured latency; a per-pair hash stands
		// in so different peers prefer different candidates instead of
		// all adopting the lowest ID. The ascending order is immaterial:
		// PlanRewire dedups by ID and ranks by (latency, ID).
		dst = append(dst, protocol.CandidateSource{
			ID:      overlay.NodeID(id),
			Latency: sim.Time(scheduler.Jitter(p.cfg.Seed, uint64(p.id), uint64(id)) % 1000),
		})
	}
	return dst
}

func (v *peerView) AppendDHTPeers(dst []protocol.CandidateSource) []protocol.CandidateSource {
	// The ring neighbours clockwise of this peer, wrapping past the top
	// of the ring like every successor scan: the structured overlay's
	// membership view of last resort.
	p := v.p
	base := len(dst)
	at := p.ring
	for k := 0; k < p.members.Len() && len(dst)-base < 4; k++ {
		at, _ = p.members.Above(at)
		id := peerOf(p.space, at)
		if id == p.id {
			continue
		}
		dst = append(dst, protocol.CandidateSource{
			ID:      overlay.NodeID(id),
			Latency: sim.Time(scheduler.Jitter(p.cfg.Seed, uint64(p.id), uint64(id)) % 1000),
		})
	}
	return dst
}

func (v *peerView) AppendRPCandidates(dst []overlay.NodeID, max int) []overlay.NodeID {
	for _, id := range v.p.rpSample(max, v.p.id) {
		dst = append(dst, overlay.NodeID(id))
	}
	return dst
}

func (v *peerView) Alive(id overlay.NodeID) bool { return v.p.alive(int(id)) }

func (v *peerView) Connected(id overlay.NodeID) bool { return v.p.linked(int(id)) }

// newPeer constructs a peer on a transport-provided identity; joiners
// open their buffer at the shared playback position instead of the stream
// start. sc is the plan and serve scratch the peer shares with its
// session's other peers.
func newPeer(tr Transport, id int, cfg Config, space dht.Space, st *Stats, isSource bool, openAt segment.ID, joinPeriod int, sc *planScratch) *peer {
	p := &peer{
		id:          id,
		ring:        ringOf(space, id),
		isSource:    isSource,
		tr:          tr,
		cfg:         cfg,
		space:       space,
		st:          st,
		rng:         sim.DeriveRNG(cfg.Seed, uint64(id)+0x9000),
		buf:         buffer.New(cfg.BufferSegments, openAt),
		ctrl:        bandwidth.NewController(0.3, float64(cfg.Rate)),
		curPeriod:   joinPeriod,
		lastReplace: joinPeriod - 1000, // no artificial cooldown at birth
		sc:          sc,
	}
	p.seg = buffer.OpenTrack(cfg.BufferSegments, p.buf.Lo(), buffer.Track{})
	p.up.Open(p.outbound(), sim.Second)
	p.view.p = p
	if !isSource {
		p.alpha = prefetch.NewAlpha(prefetch.AlphaConfig{
			PlaybackRate:  cfg.Rate,
			BufferSize:    cfg.BufferSegments,
			Tau:           sim.Second,
			THop:          cfg.THop,
			ExpectedNodes: cfg.Peers,
		})
	}
	p.aliveFn = p.view.Alive
	p.gossipFn = p.noteGossipPick
	p.askedFn = func(seg segment.ID) bool { return p.seg.InFlight(seg, p.curPeriod) }
	p.nbrLacksFn = p.neighbourLacks
	p.serveIn = protocol.ServeInput{
		SupplierHas:    p.buf.Has,
		RequesterAlive: p.aliveFn,
		RequesterHas:   p.neighbourHas,
		Rarity:         p.supplierRarity,
	}
	return p
}

// outbound is the peer's per-period serving capacity O.
func (p *peer) outbound() int {
	if p.isSource {
		return p.cfg.SourceOutbound
	}
	return p.cfg.OutboundPerPeriod
}

// firstSlot is the earliest wire offset peer from can honestly stamp on a
// data frame: Uplink.WireAt(1) at the outbound the configuration gives it
// (the source is always peer 0).
func (p *peer) firstSlot(from int) sim.Time {
	out := p.cfg.OutboundPerPeriod
	if from == 0 {
		out = p.cfg.SourceOutbound
	}
	return bandwidth.PerSegment(out, sim.Second)
}

// nbrIndex returns the neighbour table index of id, or the insertion
// point and false when id is not linked. A table holds a handful of rows,
// so a forward scan of the IDs beats a binary search's unpredictable
// branches on every message.
func (p *peer) nbrIndex(id int) (int, bool) {
	for i, nb := range p.nbrIDs {
		if int(nb) >= id {
			return i, int(nb) == id
		}
	}
	return len(p.nbrIDs), false
}

// row returns id's neighbour row, or nil when id is not linked. The
// pointer is valid until the next link or unlink.
func (p *peer) row(id int) *neighbour {
	if i, ok := p.nbrIndex(id); ok {
		return &p.nbrs[i]
	}
	return nil
}

// linked reports whether id is a connected neighbour.
func (p *peer) linked(id int) bool {
	_, ok := p.nbrIndex(id)
	return ok
}

// link connects id as of period now (refreshing the row of an existing
// link) and returns its row.
func (p *peer) link(id, now int) *neighbour {
	i, ok := p.nbrIndex(id)
	if !ok {
		p.nbrs = slices.Insert(p.nbrs, i, neighbour{id: id})
		p.nbrIDs = slices.Insert(p.nbrIDs, i, overlay.NodeID(id))
		p.forget(id)
	}
	p.nbrs[i].seen = now
	return &p.nbrs[i]
}

// hear puts id in the adoption pool as of the current period. An ID off
// the rescue ring is refused here, where gossip enters, as the other
// edges that admit IDs refuse it.
func (p *peer) hear(id int) {
	if !onRing(id) {
		return
	}
	if id >= len(p.overheard) {
		p.overheard = append(p.overheard, make([]int32, id+1-len(p.overheard))...)
	}
	p.overheard[id] = int32(p.curPeriod) + 1
}

// forget takes id out of the adoption pool.
func (p *peer) forget(id int) {
	if id >= 0 && id < len(p.overheard) {
		p.overheard[id] = 0
	}
}

// overheardFloor is the adoption pool's bound this period: an ID is in the
// pool iff its overheard entry exceeds it, that is, it was last named no
// more than Config.sightTTL() periods ago.
func (p *peer) overheardFloor() int32 {
	return int32(max(0, p.curPeriod-p.cfg.sightTTL()))
}

// unlink drops the neighbour at table index i with everything learned
// about it.
func (p *peer) unlink(i int) {
	p.ctrl.Forget(p.nbrs[i].id)
	p.nbrs = slices.Delete(p.nbrs, i, i+1)
	p.nbrIDs = slices.Delete(p.nbrIDs, i, i+1)
}

// neighbourHas reports whether a linked neighbour's latest map shows a
// segment (the serve path's "already has it" probe).
func (p *peer) neighbourHas(id overlay.NodeID, seg segment.ID) bool {
	nb := p.row(int(id))
	return nb != nil && nb.m.Has(seg)
}

// neighbourLacks is the push planner's probe: bit i set when a linked
// neighbour's latest map does not show segment pushBase+i. The map is up
// to a period stale, so it is re-based at the frontier.
func (p *peer) neighbourLacks(id overlay.NodeID) uint64 {
	var word [1]uint64
	if nb := p.row(int(id)); nb != nil {
		nb.m.WordsFrom(word[:], p.pushBase)
	}
	return ^word[0]
}

// send stamps the message built in p.out with the peer's current period
// clock — the wire v2 re-sync beacon every message carries — and transmits
// it. The transport reads the slot through its pointer, so its own copy is
// the only one a send makes. Send sites run inside handle and the phase
// calls, so the transport must not hand a message over from inside Send.
func (p *peer) send(to int) bool {
	p.out.Period = p.curPeriod
	return p.tr.Send(to, &p.out)
}

// handle applies one incoming message. m is the sender's message in place
// (a queue slot in-process, the decoded datagram over UDP): handle reads
// it and may keep what its Map and Gossip point to, which senders never
// write again, but never keeps m, which the transport reuses once handle
// returns. The sender's neighbour row is looked up once; only a link or an
// unlink replaces it.
func (p *peer) handle(m *Message) {
	// Gossip feeds the adoption pool whichever message carried it: a map
	// announcement, or the rendezvous point's ConnectOK sample.
	for _, g := range m.Gossip {
		if g != p.id && !p.linked(g) {
			p.hear(g)
		}
	}
	nb := p.row(m.From)
	switch m.Kind {
	case msgMap:
		// Only linked neighbours' maps are kept: a peer this one has
		// already dropped may announce once more before the Bye reaches
		// it, and that map would never be read.
		if nb != nil {
			if m.Map != nil {
				nb.m = *m.Map
			}
			nb.seen = p.curPeriod
		}
	case msgRequest:
		// Only a linked neighbour's ask is served: the serve spends the
		// uplink the links share, and over UDP anyone can write to the
		// socket. A rescue request stays open to any peer, because rescues
		// go to ring-hashed peers by design.
		if nb == nil {
			break
		}
		p.st.AsksReceived++
		p.asks = append(p.asks, protocol.Ask{
			Requester: overlay.NodeID(m.From), ID: m.Seg, Deadline: m.Deadline,
		})
	case msgData:
		p.receiveData(m)
	case msgRescueReq:
		// The rescue serve path: the asked peer answers from its buffer,
		// directly, as the paper's on-demand retrieval exchange does.
		// Rescue replies draw on the same 2·O outbound horizon the serve
		// and push paths share — the simulator's pre-fetch claims charge
		// their supplier's uplink the same way — so a hot ring position
		// degrades to next-period retries instead of serving unbounded
		// copies for free.
		if p.buf.Has(m.Seg) {
			if slot := p.up.ChargeRescue(); slot > 0 {
				p.out = Message{From: p.id, Kind: msgData, Seg: m.Seg, Rescue: true, Deadline: p.up.WireAt(slot)}
				p.send(m.From)
			}
		}
	case msgConnect:
		// Adoption is bidirectional, as in the simulator's addEdge; the
		// accepting side replies with its current map so the newcomer can
		// schedule against it immediately. The source is the rendezvous
		// point: it additionally stamps the reply with the current period
		// (a socket-path joiner's clock sync) and a membership sample (the
		// joiner's first adoption candidates) — the bootstrap handshake.
		nb = p.link(m.From, p.curPeriod)
		snap := p.buf.Snapshot()
		p.out = Message{From: p.id, Kind: msgConnectOK, Map: &snap}
		if p.isSource {
			p.out.Deadline = sim.Time(p.curPeriod)
			p.out.Gossip = p.rpSample(p.cfg.M+2, m.From)
		}
		p.send(m.From)
	case msgConnectOK:
		nb = p.link(m.From, p.curPeriod)
		if m.Map != nil {
			nb.m = *m.Map
		}
	case msgBye:
		if i, ok := p.nbrIndex(m.From); ok {
			p.unlink(i)
		}
		nb = nil
	}
	// The period stamp counts once the sender is linked, the Connect or
	// ConnectOK that links it included; an unlinked sender's never does.
	if nb != nil && m.Period > nb.stamp {
		nb.stamp = m.Period
	}
}

// networkPeriod is the period the peer's links vouch for, which Node.Run
// re-syncs to: the second-highest period stamp among its neighbour rows,
// the one row's with a single link, 0 with none. One frame stamped far
// ahead moves nothing; it takes two linked senders ahead to move it.
func (p *peer) networkPeriod() int {
	first, second := 0, 0
	for i := range p.nbrs {
		if s := p.nbrs[i].stamp; s > first {
			first, second = s, first
		} else if s > second {
			second = s
		}
	}
	if len(p.nbrs) == 1 {
		return first
	}
	return second
}

// receiveData ingests one data message: store, account, and — for
// eager-push copies below the hop bound — forward the fresh segment one
// hop further (the livenet mirror of the simulator's pushPhase frontier).
func (p *peer) receiveData(m *Message) {
	wasRescue := m.Rescue && p.seg.PrefetchPending(m.Seg, p.curPeriod)
	p.seg.Received(m.Seg)
	already := p.buf.Has(m.Seg)
	stored := p.buf.Insert(m.Seg)
	if stored {
		p.st.Delivered++
		// Credit the delivery at the offset its sender's uplink finished
		// it (Uplink.WireAt) — the livenet mirror of the simulator's
		// (d.at - now).Seconds(). The rate controller divides deliveries
		// by the latest offset, so a neighbour whose uplink is crowded
		// reads as slow and Algorithm 1 steers asks away from it; that
		// feedback is what keeps suppliers from being herded onto. An
		// offset taken from this peer's own wall clock cannot carry it —
		// a supplier's grants leave in one burst, so the clock measures
		// where in the period the runtime happened to serve, and the
		// estimates (and with them evictions and replacements) moved
		// with the speed of the code and of the host. Unstamped data
		// credits the whole period. A stamp is floored at the sender's
		// first wire slot, where the earliest honest grant, push or rescue
		// reply leaves: a sender claiming faster than its outbound allows
		// would otherwise attract every ask. There is no upper clamp — a
		// multi-hop push honestly accumulates offsets past the 2·O horizon.
		off := sim.Second
		if m.Deadline > 0 {
			off = max(m.Deadline, p.firstSlot(m.From))
		}
		p.ctrl.ObserveDelivery(m.From, off.Seconds())
		if m.Rescue {
			p.st.Rescued++
		}
		if m.Hop > 0 {
			p.st.PushDelivered++
			p.pushReceived++
		}
	}
	if wasRescue && already {
		p.repeated++ // gossip beat the rescue: repeated data
	}
	// Push forwarding: hop h receivers forward to hop h+1 while the hop
	// bound allows, spending from the same per-period outbound the serve
	// path draws on.
	if p.cfg.Engine && m.Hop > 0 && m.Hop < p.cfg.PushHops && stored {
		p.pushBase = m.Seg
		sends := protocol.PlanPushMask(
			p.cfg.Seed^uint64(p.id)*0x9e3779b97f4a7c15^uint64(p.curPeriod),
			overlay.NodeID(p.id), m.Seg, []segment.ID{m.Seg}, p.nbrIDs, p.nbrLacksFn, p.up.PushRoom())
		for _, s := range sends {
			p.out = Message{From: p.id, Kind: msgData, Seg: s.ID, Hop: m.Hop + 1, Deadline: m.Deadline + p.up.WireAt(p.up.ChargePush())}
			p.send(int(s.To))
		}
	}
}

// A scheduling period runs in four phases, the simulator's round order
// (push → exchange → schedule → serve) over real messages. Each phase
// reads what the one before it sent, so the order only means something if
// the runtime lets those messages land in between: in-process, the session
// hands over everything a peer's phase call sent before the next call
// (see session.sweep), so a push lands before its receiver announces or
// asks, every map a peer schedules against was announced this period, and
// every ask is in its supplier's hands when that supplier serves — a pull
// hop costs one period, not two. Over sockets nothing in flight can be
// seen: the first three phases run back to back at the tick, handed only
// what had already arrived after each call, Node.Run serves half a period
// later, and in between it hands datagrams over as they arrive — all on
// the one goroutine that runs the session.

// periodBegin opens period now: advance the clock and the window, settle
// the previous period's accounts, and — on the source — generate and push
// the fresh segments. members is the period's membership on the rescue
// ring; the later phases read it from the peer.
func (p *peer) periodBegin(now int, pos segment.ID, members *dht.Members) {
	p.curPeriod = now
	p.pos = pos
	p.members = members
	// A livenet supplier serves at its next period boundary, so a
	// request's data arrives one period after the ask; crediting the rate
	// controller on the period the reply is due keeps requests and
	// deliveries paired the way the BSP simulator pairs them — without
	// this, every ask looks unanswered in its own period and the service
	// estimates decay until the scheduler deems every supplier too slow
	// to bother asking (measured: pull traffic collapses to zero).
	for i := range p.nbrs {
		if nb := &p.nbrs[i]; nb.asked > 0 {
			p.ctrl.NoteRequested(nb.id, nb.asked)
			nb.asked = 0
		}
	}
	p.buf.AdvanceTo(pos)
	p.seg.AdvanceTo(pos)
	if p.alpha != nil {
		// Only §4.3's Case 2 reaches a livenet peer: a rescue reply cannot
		// be stored below the window, so none is ever seen to be overdue.
		p.alpha.Apply(0, p.repeated)
		p.repeated = 0
	}
	if p.isSource {
		for s := segment.ID(now * p.cfg.Rate); s < segment.ID((now+1)*p.cfg.Rate); s++ {
			p.buf.Insert(s)
		}
		p.pushFresh(now)
	}
}

// periodAnnounce is the exchange phase: repair the mesh, then announce
// the buffer map with piggybacked membership gossip.
func (p *peer) periodAnnounce() {
	if p.cfg.Repair {
		p.maintainMesh(p.curPeriod)
	}
	p.announce()
}

// periodSchedule schedules the period's pulls over the neighbour maps and
// fires rescues for urgent holes.
func (p *peer) periodSchedule() {
	if p.isSource {
		return
	}
	now := p.curPeriod
	p.schedulePulls(now)
	if p.cfg.Repair && now >= p.cfg.PlaybackLagPeriods {
		p.rescueUrgent(now)
	}
}

// periodServe drains the asks that arrived — including this period's —
// through the supplier-side service discipline, then folds the period's
// rate observations.
func (p *peer) periodServe() {
	p.servePeriod(p.curPeriod)
	p.ctrl.Tick()
	p.up.Open(p.outbound(), sim.Second)
	p.pushReceived = 0
}

// evalPlayback evaluates one period's playback — does the peer hold every
// segment of win — and records the outcome in the miss state mesh
// maintenance reads.
func (p *peer) evalPlayback(win segment.Window) bool {
	ok := p.buf.HasAll(win)
	p.missedLast = !ok
	if ok {
		p.missStreak = 0
	} else {
		p.missStreak++
	}
	return ok
}

// pushFresh is the source's hop-1 spray of this period's new segments.
func (p *peer) pushFresh(now int) {
	if !p.cfg.Engine || p.cfg.PushHops <= 0 {
		return
	}
	fresh := make([]segment.ID, 0, p.cfg.Rate)
	p.pushBase = segment.ID(now * p.cfg.Rate)
	for s := p.pushBase; s < segment.ID((now+1)*p.cfg.Rate); s++ {
		if p.buf.Has(s) {
			fresh = append(fresh, s)
		}
	}
	sends := protocol.PlanPushMask(
		p.cfg.Seed^0x51c^uint64(now), overlay.NodeID(p.id), p.pushBase, fresh, p.nbrIDs, p.nbrLacksFn, p.up.PushRoom())
	for _, s := range sends {
		p.out = Message{From: p.id, Kind: msgData, Seg: s.ID, Hop: 1, Deadline: p.up.WireAt(p.up.ChargePush())}
		p.send(int(s.To))
	}
}

// servePeriod drains the period's accumulated asks through the shared
// supplier-side discipline: protocol.PlanServe (EDF + rarity + bounded
// carry) with the engine, protocol.ServeRoundRobin without — the same
// code paths the simulator's serveSupplier drives.
func (p *peer) servePeriod(now int) {
	asks := p.asks
	p.asks = p.asksSpare[:0]
	var res protocol.ServeResult
	if p.cfg.Engine {
		in := &p.serveIn
		in.Carried, in.Fresh, in.QueueInto = p.carry, asks, p.carry[:0]
		in.Capacity = p.up.Spare()
		in.QueueCap = p.cfg.QueueFactor * p.outbound()
		in.Horizon = sim.Time(now)
		res = protocol.PlanServe(*in, &p.sc.serve)
		p.carry = res.Queued
		p.st.QueueCarried += int64(len(res.Queued))
	} else {
		reqs := make([]protocol.Request, len(asks))
		for i, a := range asks {
			reqs[i] = protocol.Request{Requester: a.Requester, ID: a.ID, Expected: a.Deadline}
		}
		res = protocol.ServeRoundRobin(reqs, p.up.Spare(), nil)
		p.carry = p.carry[:0]
	}
	p.asksSpare = asks[:0]
	p.st.GrantsEvicted += res.Evicted.Total()
	slot := p.up.ChargeGrants(len(res.Granted))
	for k, g := range res.Granted {
		if g.Carried {
			p.st.QueueServed++
		}
		if p.buf.Has(g.ID) {
			p.st.GrantsSent++
			p.out = Message{From: p.id, Kind: msgData, Seg: g.ID, Deadline: p.up.WireAt(slot + k)}
			p.send(int(g.Requester))
		}
	}
}

// supplierRarity is the serve side's rarity view of a segment: the
// product, over the linked neighbours advertising it, of its eviction
// probability in each one's window (protocol.SupplierRarity).
func (p *peer) supplierRarity(seg segment.ID) float64 {
	p.sc.positions = p.sc.positions[:0]
	for i := range p.nbrs {
		if pft, ok := p.nbrs[i].m.PositionFromTail(seg); ok {
			p.sc.positions = append(p.sc.positions, pft)
		}
	}
	return protocol.SupplierRarity(p.cfg.BufferSegments, p.sc.positions)
}

// rpSample is the rendezvous point's membership sample: up to max of the
// transport's members as of now (not of the period's opening — a burst of
// joiners hears of one another), never exclude or the peer itself.
func (p *peer) rpSample(max, exclude int) []int {
	return sampleIDs(p.rng, p.tr.Members(p.curPeriod), max, exclude, p.id)
}

// alive reports whether id is in the period's membership; no off-ring ID is.
func (p *peer) alive(id int) bool {
	return onRing(id) && p.members.Has(ringOf(p.space, id))
}

// dead is the one dead-link rule: the far side has left the membership
// view, or the link has been silent beyond the staleness bound. Mesh
// repair drops such links; Stats.EndDeadLinks counts the ones left.
func (p *peer) dead(nb *neighbour, now int) bool {
	return !p.alive(nb.id) || now-nb.seen > p.cfg.DeadAfterPeriods
}

// maintainMesh drops neighbours discovered dead and runs the shared rewire
// decision — protocol.PlanRewire, the simulator's maintenance rules — over
// the peer's locally learned view, then applies the intent through
// protocol.ApplyRewire with Bye/Connect control messages. A new link lands
// only on its ConnectOK, so a swap lowers the degree the refill reads.
func (p *peer) maintainMesh(now int) {
	for i := len(p.nbrs) - 1; i >= 0; i-- {
		if nb := &p.nbrs[i]; p.dead(nb, now) {
			p.forget(nb.id)
			p.unlink(i)
			p.st.DeadDropped++
		}
	}
	view := protocol.MaintenanceView{
		Node:            overlay.NodeID(p.id),
		Source:          0, // the source is always peer 0
		IsSource:        p.isSource,
		Warm:            now > p.cfg.PlaybackLagPeriods,
		Round:           now,
		LastReplace:     p.lastReplace,
		Degree:          len(p.nbrs),
		DegreeTarget:    p.cfg.DegreeTarget(p.isSource),
		MissedLastRound: p.missedLast,
		MissStreak:      p.missStreak,
		Provider:        &p.view,
	}
	p.rewireScratch.Reset()
	intent, ok := protocol.PlanRewire(view, p.cfg.Maintenance, &p.rewireScratch)
	if !ok {
		return
	}
	connect := func(cand overlay.NodeID) {
		p.forget(int(cand))
		p.out = Message{From: p.id, Kind: msgConnect}
		p.send(int(cand))
	}
	protocol.ApplyRewire(intent, &p.view, func() int { return len(p.nbrs) }, view.DegreeTarget,
		func(victim, cand overlay.NodeID) {
			p.lastReplace = now
			p.st.Replaced++
			vi, _ := p.nbrIndex(int(victim)) // Connected, so linked
			p.unlink(vi)
			p.out = Message{From: p.id, Kind: msgBye}
			p.send(int(victim))
			connect(cand)
		}, connect)
}

// announce sends the buffer map to every neighbour, with membership
// gossip piggybacked via the shared protocol picks (two of the sender's
// other neighbours per receiver). Every receiver gets the same snapshot:
// it is immutable once sent, and so are the gossip runs carved from one
// arena — the two payloads a period hands to the transport.
func (p *peer) announce() {
	n := len(p.nbrs)
	if n == 0 {
		return
	}
	snap := p.buf.Snapshot()
	p.gossipEnd = slices.Grow(p.gossipEnd[:0], n)[:n]
	p.gossip = make([]int, 0, 2*n)
	p.gossipAt = 0
	protocol.GossipPicks(p.rng, p.nbrIDs, p.aliveFn, p.gossipFn)
	for ; p.gossipAt < n; p.gossipAt++ {
		p.gossipEnd[p.gossipAt] = len(p.gossip)
	}
	start := 0
	for i, end := range p.gossipEnd {
		var g []int
		if end > start {
			g = p.gossip[start:end:end]
		}
		start = end
		p.out = Message{From: p.id, Kind: msgMap, Map: &snap, Gossip: g}
		p.send(p.nbrs[i].id)
	}
}

// noteGossipPick is GossipPicks' emit callback. Picks arrive grouped by
// receiver in neighbour order, so each receiver's run is closed as soon
// as the next one's first pick shows up.
func (p *peer) noteGossipPick(to, about overlay.NodeID) {
	for p.nbrIDs[p.gossipAt] != to {
		p.gossipEnd[p.gossipAt] = len(p.gossip)
		p.gossipAt++
	}
	p.gossip = append(p.gossip, int(about))
}

// supplierRotation is where the ascending supplier list starts this
// period. Algorithm 1 and the priority terms see suppliers in list order,
// and any fixed order would hand the same neighbours every near-tie; a
// rotation that is a pure function of (seed, peer, period) spreads them
// across the neighbourhood while staying reproducible per seed.
func supplierRotation(seed uint64, id, period, n int) int {
	return int(scheduler.Jitter(seed, uint64(id), uint64(period)) % uint64(n))
}

// candidates enumerates the fresh segments any linked neighbour advertises
// inside the peer's own buffer window — available there, absent here, not
// already asked for — through the enumeration the simulator shares
// (scheduler.Enumeration.Candidates): each neighbour's map is re-based at
// the own buffer origin (maps arrive a period stale, so their windows open
// lower) and listed from this period's supplier rotation on. The own
// window opens at the playback position (periodBegin has just advanced
// it), which is the fetch-window floor: segments behind it are pruned on
// both sides, and asking for them would burn the inbound budget on
// unfulfillable requests.
//
// The result aliases the peer's scratch and is valid until the next call.
func (p *peer) candidates(now int) []scheduler.Candidate {
	own := p.buf.Words()
	nw := len(own)
	origin := p.buf.Lo()
	p.sc.words = slices.Grow(p.sc.words[:0], nw*len(p.nbrs))
	live := p.sc.live[:0]
	for i := range p.nbrs {
		nb := &p.nbrs[i]
		if nb.m.Size == 0 {
			continue // linked, no map heard yet
		}
		at := len(p.sc.words)
		p.sc.words = p.sc.words[:at+nw]
		bits := p.sc.words[at : at+nw : at+nw]
		nb.m.WordsFrom(bits, origin)
		live = append(live, scheduler.NeighborWords{
			Node: nb.id,
			Rate: p.ctrl.Rate(nb.id),
			Tail: int(nb.m.Lo-origin) + nb.m.Size,
			Bits: bits,
		})
	}
	p.sc.live = live
	if len(live) == 0 {
		return nil
	}
	if k := supplierRotation(p.cfg.Seed, p.id, now, len(live)); k > 0 {
		// Rotate left by k with three reversals.
		slices.Reverse(live[:k])
		slices.Reverse(live[k:])
		slices.Reverse(live)
	}
	return p.sc.enum.Candidates(live, own, p.buf.Size(), origin, &p.seg, now)
}

// schedulePulls runs the paper's urgency+rarity scheduling policy over
// the latest neighbour maps and sends the resulting requests, each tagged
// with the period its segment plays in (the supplier's EDF key).
func (p *peer) schedulePulls(now int) {
	budget := p.cfg.OutboundPerPeriod - p.pushReceived
	if budget <= 0 {
		return
	}
	cands := p.candidates(now)
	if len(cands) == 0 {
		return
	}
	p.sc.sched.Reset()
	in := scheduler.Input{
		PriorityInput: scheduler.PriorityInput{
			Play:         p.pos,
			PlaybackRate: p.cfg.Rate,
			BufferSize:   p.cfg.BufferSegments,
			NoPlayback:   now < p.cfg.PlaybackLagPeriods,
		},
		Tau:           sim.Second,
		InboundBudget: budget,
		Candidates:    cands,
		Scratch:       &p.sc.sched,
		JitterSeed:    p.cfg.Seed ^ uint64(p.id)*0x9e3779b97f4a7c15,
		RarityNoise:   p.cfg.RarityNoise,
	}
	for _, r := range (scheduler.Greedy{}).Schedule(in) {
		p.st.AsksSent++
		p.seg.MarkGossip(r.ID, now+p.cfg.RetryPeriods, 0) // the peer reads no promised arrival
		if nb := p.row(r.Supplier); nb != nil {
			nb.asked++
		}
		p.out = Message{From: p.id, Kind: msgRequest, Seg: r.ID, Deadline: p.playDeadline(r.ID)}
		p.send(r.Supplier)
	}
}

// playDeadline is the period in which a segment plays — the EDF key the
// supplier orders by and the horizon test for carrying.
func (p *peer) playDeadline(seg segment.ID) sim.Time {
	return sim.Time(int(seg)/p.cfg.Rate + p.cfg.PlaybackLagPeriods)
}

// rescueUrgent runs the urgent-line prediction (the same α-adapted
// prefetch.PredictInto the simulator drives) and asks, for each
// predicted-missed segment, a ring-hashed peer (keyHolder of one of its k
// keys, else the source) to answer from its buffer. There is no backup, and
// that peer is seldom the one §4.3's placement rule would have store the
// segment (EXPERIMENTS.md "Livenet ring").
func (p *peer) rescueUrgent(now int) {
	if p.alpha == nil {
		return
	}
	var plan prefetch.Decision
	plan, p.sc.rescueIDs = prefetch.PredictInto(p.sc.rescueIDs[:0], p.buf, p.pos, p.alpha.Value(), p.cfg.PrefetchLimit, p.askedFn)
	if !plan.Triggered {
		return
	}
	for _, seg := range plan.Missed {
		// Spread load across the k replicas: start from a replica keyed
		// by (segment, period) and take the first holder that is not us.
		// Replica indices are 1..k, the §4.3 keys (dht.HashKey); index 0
		// would hash to a segment-independent constant key.
		target := -1
		for r := 0; r < p.cfg.Replicas; r++ {
			replica := 1 + (int(seg)+now+r)%p.cfg.Replicas
			if holder, ok := p.keyHolder(dht.HashKey(p.space, seg, replica)); ok && holder != p.id {
				target = holder
				break
			}
		}
		if target < 0 {
			target = 0 // the source: the retrieval path of last resort
		}
		p.seg.MarkPrefetch(seg, now+p.cfg.RetryPeriods)
		p.st.RescueAsked++
		p.out = Message{From: p.id, Kind: msgRescueReq, Seg: seg}
		p.send(target)
	}
}

// keyHolder is the peer a rescue for a ring key asks: the first member at
// or clockwise after the key. False when the ring is empty.
func (p *peer) keyHolder(key dht.ID) (int, bool) {
	at, ok := key, p.members.Has(key)
	if !ok {
		at, ok = p.members.Above(key)
	}
	return peerOf(p.space, at), ok
}
