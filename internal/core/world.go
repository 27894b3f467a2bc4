package core

import (
	"continustreaming/internal/bandwidth"
	"continustreaming/internal/buffer"
	"continustreaming/internal/churn"
	"continustreaming/internal/dht"
	"continustreaming/internal/metrics"
	"continustreaming/internal/overlay"
	"continustreaming/internal/prefetch"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
	"continustreaming/internal/topology"
)

// World is the simulated overlay: every alive node, the connected-neighbour
// edge set, the DHT network, the RP server and the per-round metric
// counters. It implements sim.System; one Step is one scheduling period.
type World struct {
	cfg   Config
	space dht.Space

	// nodes is a dense table indexed by ring ID (nil = no node on that
	// slot). Ring IDs are bounded by the identifier space, so a slice
	// replaces the hash map every hot phase would otherwise probe; the
	// connected-neighbour edge set lives in the nodes' Peer Tables
	// (symmetric by construction in addEdge/removeEdge).
	nodes  []*Node
	order  []overlay.NodeID // alive IDs, ascending (rebuilt on churn)
	dhtNet *dht.Network
	rp     *overlay.Rendezvous
	source overlay.NodeID

	pool      *sim.Pool
	rng       *sim.RNG // world-level stream: construction, churn, joins
	churnProc *churn.Process
	collector *metrics.Collector

	// policy is the data scheduling discipline the profile selects. The
	// policies keep no state between calls, so one value serves every
	// node on every shard.
	policy scheduler.Policy
	// shardRank numbers every ring ID within its ownership shard and
	// shardSize counts each shard's IDs (see shardRanks); read-only after
	// construction.
	shardRank []int32
	shardSize [phaseShards]int32

	// idGen counts how many times each ring ID has been assigned and
	// vacated (indexed by ring ID). It salts the per-node random streams
	// so a joiner recycling a dead node's slot draws fresh bandwidth and
	// jitter instead of replaying its predecessor's; generation 0 (no
	// reuse) leaves every derivation exactly as before.
	idGen []uint64

	// ping is each alive node's trace ping time by ring ID, zero on a
	// vacant slot (trace pings start at 10 ms); pairwise latency derives
	// from ping differences (§5.2). Dense because Latency is asked for
	// arbitrary pairs from every phase: one load per end, where the node
	// structs cost a dependent miss each.
	ping []sim.Time

	// joinCands, joinHeard and joinPool are join's working lists (the RP's
	// candidates, an overheard list in recency order, the wiring pool),
	// reused from joiner to joiner.
	joinCands []overlay.NodeID
	joinHeard []overlay.Overheard
	joinPool  []joinCand

	// slabs holds each ownership shard's Node values (see slab): every
	// *Node in nodes points into its own shard's slab.
	slabs [phaseShards]slab

	// freeSeg holds departed nodes' segment trackers (two slices over the
	// fetch span) for the next joiners to reuse, whatever their shard: a
	// tracker kept with its slot would idle on the free list of a shard
	// that shrank while one that grew allocated new ones. Churn is
	// sequential, so the list needs no shard discipline; it holds at most
	// leavers minus joiners, memory that was live before they left.
	freeSeg []buffer.Track

	// retr is the long-lived Algorithm 2 retriever with its reusable
	// lookup scratch; resolvePrefetch's claim stage is sequential, so one
	// scratch serves the whole phase (built lazily on first use).
	retr        *prefetch.Retriever
	retrScratch prefetch.Scratch

	// arenas holds each ownership shard's round-lived scratch and its
	// in-flight deliveries — the transfers that land in a later round
	// than the one that granted them (see roundArena); only shard s (or
	// sequential phase code) touches arenas[s].
	arenas []roundArena
	// lists backs the arenas' grant hand-off lists and their grouped
	// copies (see roundLists).
	lists roundLists

	// round mirrors the engine clock for code that needs the index between
	// phases.
	round int

	// testRewireIntentHook, when non-nil, observes every maintenance
	// rewire intent in apply order (a white-box seam for the golden
	// parity test; never set outside tests).
	testRewireIntentHook func(protocol.RewireIntent)
}

// delivery is one segment transfer in flight, arriving at `at`
// (milliseconds): 20 bytes of int32 fields and a flag (see newDelivery).
type delivery struct {
	to, from int32
	id       int32
	at       int32
	prefetch bool
}

// newDelivery builds a delivery record. Ring IDs fit int32 because
// dht.NewSpace caps the ring at 2^31 slots; the segment ID and the arrival
// stamp are checked (seg32, ms32).
func newDelivery(to, from overlay.NodeID, id segment.ID, at sim.Time, prefetch bool) delivery {
	return delivery{to: int32(to), from: int32(from), id: seg32(id), at: ms32(at), prefetch: prefetch}
}

// NewWorld builds a world from the configuration: synthesizes the
// Gnutella-like topology, augments it to the target degree, assigns ring IDs
// via the RP server, wires connected neighbours from the augmented graph,
// and populates every DHT peer table.
func NewWorld(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	space := dht.NewSpace(cfg.spaceSize())
	w := &World{
		cfg:       cfg,
		space:     space,
		nodes:     make([]*Node, space.N()),
		dhtNet:    dht.NewNetwork(space),
		rp:        overlay.NewRendezvous(space),
		pool:      sim.NewPool(cfg.Workers),
		rng:       sim.DeriveRNG(cfg.Seed, 0x0571d),
		collector: metrics.NewCollector(),
		policy:    scheduler.Greedy{},
		idGen:     make([]uint64, space.N()),
		ping:      make([]sim.Time, space.N()),
	}
	if cfg.Profile.Policy == PolicyRarestFirst {
		w.policy = scheduler.RarestFirst{}
	}
	w.shardRank, w.shardSize = shardRanks(space.N())
	w.buildArenas()
	graph := topology.Generate(topology.GenerateConfig{
		N:         cfg.Nodes,
		AvgDegree: 2.5,
		Seed:      cfg.Seed,
	})
	topology.Augment(graph, cfg.M, sim.DeriveRNG(cfg.Seed, 0xa06))

	// Assign ring IDs to trace indices.
	ringOf := make([]overlay.NodeID, graph.N())
	for i := range ringOf {
		ringOf[i] = w.rp.AssignID(w.rng)
	}
	// Build the nodes into the shard slabs in the order the round walks
	// them, each shard's initial population filling one chunk. Their
	// trackers are cut from one store and their buffer words allocated in
	// the same order, and after admit their neighbour lists are reserved
	// in it (the trace degree plus slack), so an owner walk reads each
	// kind of node state front to back. (The controller and overheard rows
	// are first allocated inside the schedule and maintenance shard walks,
	// in walk order already.) Building draws only each node's own stream;
	// admit draws w.rng, so it keeps trace order. The source is trace
	// index 0.
	walk, shardLen := w.initialWalk(ringOf)
	for s, n := range shardLen {
		w.slabs[s].grow(n)
	}
	segs := buffer.NewTrackStore(cfg.fetchSpan(), len(walk))
	for _, i := range walk {
		id := ringOf[i]
		w.nodes[id] = w.buildNode(w.slabs[w.shardOf(id)].take(), segs.Take(), id, i == 0)
	}
	for i, id := range ringOf {
		w.admit(w.nodes[id], graph.Nodes[i].Ping)
	}
	for _, i := range walk {
		w.nodes[ringOf[i]].Table.Reserve(len(graph.Adj[i]) + linkSlack)
	}
	w.source = ringOf[0]
	// Wire connected neighbours from the augmented trace graph.
	for u := 0; u < graph.N(); u++ {
		for _, v := range graph.Adj[u] {
			if u < v {
				w.addEdge(ringOf[u], ringOf[v])
			}
		}
	}
	// Converged DHT tables at start (the overlay has been up a while).
	for _, id := range w.dhtNet.IDs() {
		w.dhtNet.FillTable(w.dhtNet.Table(id), w.rng)
	}
	w.rebuildOrder()
	if cfg.Churn.Enabled() {
		w.churnProc = churn.NewProcess(cfg.Churn, sim.DeriveRNG(cfg.Seed, 0xc402))
	}
	return w, nil
}

// admit makes a built node a member, at the given trace ping time: of the
// world's tables, of the RP server's list and of the DHT, whose levelled
// table for it becomes the DHT section of its Peer Table. The DHT join
// draws w.rng, so NewWorld admits its nodes in trace order, whatever order
// it built them in.
func (w *World) admit(n *Node, ping sim.Time) {
	w.nodes[n.ID] = n
	w.ping[n.ID] = ping
	w.rp.Register(n.ID)
	n.Table = *overlay.NewPeerTable(n.ID, w.cfg.H, w.dhtNet.Join(dht.ID(n.ID), w.rng))
}

// buildNode constructs a node in n, a zeroed slot of its shard's slab,
// with profile-appropriate components, all but its Peer Table, which
// admit adds. recycled is the tracker it opens: a departed node's, one
// cut from a TrackStore, or zero for a new one. The node draws only its
// own stream, so the order nodes are built in decides nothing.
func (w *World) buildNode(n *Node, recycled buffer.Track, id overlay.NodeID, isSource bool) *Node {
	cfg := w.cfg
	var rates bandwidth.Rates
	gen := w.idGen[id]
	nodeRNG := sim.DeriveRNG(cfg.Seed, uint64(id)+0x9000+gen*0xd1342543de82ef95)
	if isSource {
		rates = cfg.Bandwidth.Source()
	} else {
		rates = cfg.Bandwidth.Draw(nodeRNG)
	}
	*n = Node{
		ID:       id,
		Gen:      gen,
		IsSource: isSource,
		Rates:    rates,
		// Initial-population sentinel; join() overwrites with the join
		// round. A plain 0 would alias round-0 churn joiners with the
		// pre-converged initial overlay in the warm-continuity check.
		JoinedRound: -1,
		Buf:         *buffer.New(cfg.BufferSegments, 0),
		Ctrl:        *bandwidth.NewController(0.3, float64(cfg.Stream.Rate)),
		RNG:         *nodeRNG,
	}
	// The tracker opens where the node's window will: the stream start for
	// the initial population, the playback position for a joiner. It spans
	// the fetch span, not the buffer: no ID at or past the fetch edge
	// exists, and the window's lo is the playback position.
	n.seg = buffer.OpenTrack(cfg.fetchSpan(), w.playbackPos(w.round), recycled)
	if cfg.Profile.Prefetch && !isSource {
		n.Alpha = prefetch.NewAlpha(prefetch.AlphaConfig{
			PlaybackRate:  cfg.Stream.Rate,
			BufferSize:    cfg.BufferSegments,
			Tau:           cfg.Tau,
			THop:          cfg.THop,
			ExpectedNodes: cfg.Nodes,
		})
	}
	return n
}

// Config returns the active configuration.
func (w *World) Config() Config { return w.cfg }

// Space returns the DHT identifier space.
func (w *World) Space() dht.Space { return w.space }

// Collector exposes the per-round metric samples.
func (w *World) Collector() *metrics.Collector { return w.collector }

// Source returns the media source's ID.
func (w *World) Source() overlay.NodeID { return w.source }

// Size returns the number of alive nodes (including the source).
func (w *World) Size() int { return len(w.order) }

// Node returns the node with the given ID, or nil. Unlike the internal
// table (whose indices are live ring IDs by construction), it tolerates
// arbitrary IDs. The pointer is valid only while that node is alive: a
// leaver's Node is zeroed in place, and a later joiner may reuse the slot.
func (w *World) Node(id overlay.NodeID) *Node {
	if id < 0 || int(id) >= len(w.nodes) {
		return nil
	}
	return w.nodes[id]
}

// Nodes returns alive node IDs in ascending order; callers must not mutate.
func (w *World) Nodes() []overlay.NodeID { return w.order }

// DHTNetwork exposes the structured overlay (read-mostly; tests and the
// experiment harness use it).
func (w *World) DHTNetwork() *dht.Network { return w.dhtNet }

// Workers reports the width of the worker pool executing the parallel
// round phases.
func (w *World) Workers() int { return w.pool.Workers() }

// shardOf maps a node ID to its phase shard. Shard assignment depends only
// on the ID, never on the worker count, which is what keeps the sharded
// phases bit-identical at any parallelism.
func (w *World) shardOf(id overlay.NodeID) int {
	return sim.ShardIndex(uint64(id), phaseShards)
}

// Latency returns the simulated one-way latency between two alive nodes:
// the trace rule |ping_u − ping_v| with the topology package's floor,
// which is also the answer when either ID names no alive node.
func (w *World) Latency(u, v overlay.NodeID) sim.Time {
	if uint(u) >= uint(len(w.ping)) || uint(v) >= uint(len(w.ping)) || w.ping[u] == 0 || w.ping[v] == 0 {
		return topology.MinLatency
	}
	d := w.ping[u] - w.ping[v]
	if d < 0 {
		d = -d
	}
	return max(d, topology.MinLatency)
}

// addEdge connects two alive nodes as gossip neighbours. The mesh's edge
// set is the nodes' Peer Table neighbour lists, kept symmetric here and
// in removeEdge.
func (w *World) addEdge(u, v overlay.NodeID) {
	if w.nodes[u].Table.AddNeighborLink(v) {
		w.nodes[v].Table.AddNeighborLink(u)
	}
}

// removeEdge disconnects two nodes; either may already be gone.
func (w *World) removeEdge(u, v overlay.NodeID) {
	if n := w.nodes[u]; n != nil {
		n.Table.RemoveNeighbor(v)
		n.Ctrl.Forget(int(v))
	}
	if n := w.nodes[v]; n != nil {
		n.Table.RemoveNeighbor(u)
		n.Ctrl.Forget(int(u))
	}
}

// neighborsOf returns u's connected neighbours, ascending (nil if dead):
// the Peer Table's own slice, read-only and not to be held across edge
// changes — copy first when removing edges while iterating.
func (w *World) neighborsOf(u overlay.NodeID) []overlay.NodeID {
	if n := w.nodes[u]; n != nil {
		return n.Table.Neighbors()
	}
	return nil
}

// degreeOf returns how many connected neighbours a node has (0 if dead).
func (w *World) degreeOf(id overlay.NodeID) int {
	return len(w.neighborsOf(id))
}

// rebuildOrder refreshes the dense iteration order, and the shards' work
// lists with it, after membership changes. Walking the ID-indexed table
// yields ascending order directly.
func (w *World) rebuildOrder() {
	w.order = w.order[:0]
	for id, n := range w.nodes {
		if n != nil {
			w.order = append(w.order, overlay.NodeID(id))
		}
	}
	w.shardWorkLists()
}

// playbackPos returns the synchronized playback position for round r:
// D periods behind the live edge (clamped to the stream start). Nodes
// start playing individually, but the *position* every playing node
// targets is shared — new joiners "follow their neighbours' current
// steps".
func (w *World) playbackPos(round int) segment.ID {
	pos := w.virtualPos(round)
	if pos < 0 {
		pos = 0
	}
	return pos
}

// virtualPos is the unclamped playback position. Before playback begins it
// is negative, which matters for urgency: segment 0's deadline is round D,
// not "now", so its pre-start slack must include the remaining warm-up
// time.
func (w *World) virtualPos(round int) segment.ID {
	return segment.ID(round*w.cfg.Stream.Rate - w.cfg.delaySegments())
}

// liveEdge returns one past the newest segment that exists at the start of
// round r.
func (w *World) liveEdge(round int) segment.ID {
	return segment.ID(round * w.cfg.Stream.Rate)
}
