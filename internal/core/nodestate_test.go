package core

import (
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"continustreaming/internal/bandwidth"
	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// checkNodeState asserts, on a world that has just finished a round, the
// invariants of the state each node keeps once: the neighbour lists are
// strictly ascending, name only alive nodes and are symmetric; a carry
// queue holds only requests of alive requesters, within its bound; the
// round's outbound spend stays within the
// uplink's 2·O horizon, pushes within O; a node that joined this round
// carries nothing, has spent nothing and has no pre-fetch tag, whoever
// held its ring slot or its tracker's slices before, and has a neighbour
// unless it is alone with nobody to link to; the segment tracker opens
// at the buffer's lo and spans the fetch span, records an arrival only for a buffered segment
// and never after the round's end, has no gossip request or pre-fetch in
// flight for a buffered segment (a path that stored a copy without ending
// its requests would leave one), and has no pre-fetch tag on a segment
// the source generated this round, [liveEdge, fetchEdge) (a tag the
// window advance failed to wipe would land there, one span ahead of a
// segment played last round; no pre-fetch reaches that far ahead of
// playback, and buffer.TestTrackMatchesMapReference holds the tracker's
// own slots to account); the Peer Table's DHT levels are the table the DHT routes
// through, and every level is vacant or names an alive node (the repair
// phase has swept out what churn left, so the next round's walks meet no
// dead entry); the DHT's membership bitmap and the slots of the ping
// table that hold a ping are the alive set; and every node lies in its
// shard's slab (checkSlabs).
func checkNodeState(t *testing.T, w *World) {
	t.Helper()
	live, edge := w.liveEdge(w.round), w.fetchEdge(w.round)
	roundEnd := sim.Time(w.round+1) * w.cfg.Tau
	for _, id := range w.order {
		n := w.nodes[id]
		nbrs := n.Table.Neighbors()
		for i, nb := range nbrs {
			if i > 0 && nbrs[i-1] >= nb {
				t.Fatalf("round %d node %d: neighbours %v not strictly ascending", w.round, id, nbrs)
			}
			if peer := w.nodes[nb]; peer == nil {
				t.Fatalf("round %d node %d: neighbour %d is dead", w.round, id, nb)
			} else if !peer.Table.IsNeighbor(id) {
				t.Fatalf("round %d: edge %d-%d has no reverse", w.round, id, nb)
			}
		}

		if len(n.carry) > w.cfg.QueueFactor*n.Rates.Out {
			t.Fatalf("round %d node %d: carries %d requests, bound %d", w.round, id, len(n.carry), w.cfg.QueueFactor*n.Rates.Out)
		}
		for _, r := range n.carry {
			if w.nodes[r.Requester] == nil {
				t.Fatalf("round %d node %d: carries %+v of a departed requester", w.round, id, r)
			}
		}
		if n.up.Used() > 2*n.Rates.Out {
			t.Fatalf("round %d node %d: outbound spend %d past the 2·O horizon %d", w.round, id, n.up.Used(), 2*n.Rates.Out)
		}
		if n.up.PushRoom() < 0 {
			t.Fatalf("round %d node %d: pushes overran O = %d by %d", w.round, id, n.Rates.Out, -n.up.PushRoom())
		}
		joiner := n.JoinedRound == w.round
		if joiner && (len(n.carry) > 0 || n.up.Used() != 0) {
			t.Fatalf("round %d: joiner %d starts with %d carried requests, outbound spend %d", w.round, id, len(n.carry), n.up.Used())
		}
		// join wires a newcomer to someone whenever anyone else is alive,
		// even when every RP candidate is stale.
		if joiner && len(nbrs) == 0 && len(w.order) > 1 {
			t.Fatalf("round %d: joiner %d has no neighbour though %d other nodes are alive", w.round, id, len(w.order)-1)
		}

		if n.Table.DHT() != w.dhtNet.Table(dht.ID(id)) {
			t.Fatalf("round %d node %d: the Peer Table's DHT levels are not the table the network routes through", w.round, id)
		}
		for _, p := range n.Table.DHT().Peers() {
			if !w.dhtNet.Alive(p) {
				t.Fatalf("round %d node %d: DHT level names departed node %d", w.round, id, p)
			}
		}

		lo := n.seg.Lo()
		if lo != n.Buf.Lo() || n.seg.Size() != w.cfg.fetchSpan() {
			t.Fatalf("round %d node %d: tracker covers %d slots from %d, want %d from the buffer's %d",
				w.round, id, n.seg.Size(), lo, w.cfg.fetchSpan(), n.Buf.Lo())
		}
		// A joiner has no tag anywhere; anyone else none on this round's
		// segments.
		from, to := max(live, lo), edge
		if joiner {
			from, to = lo, lo+segment.ID(n.seg.Size())
		}
		for seg := from; seg < to; seg++ {
			if n.seg.Tagged(seg) {
				t.Fatalf("round %d node %d (joined round %d): pre-fetch tag on segment %d, window opens at %d, fetch edge %d", w.round, id, n.JoinedRound, seg, lo, edge)
			}
		}
		// The tracker agrees with the buffer on every slot of the span.
		for seg := lo; seg < lo+segment.ID(n.seg.Size()); seg++ {
			buffered := n.Buf.Has(seg)
			if at := n.seg.Arrived(seg); at >= 0 && (!buffered || at > roundEnd) {
				t.Fatalf("round %d node %d: arrival at %d ms recorded for segment %d, buffered %v, round ends at %d ms", w.round, id, at, seg, buffered, roundEnd)
			}
			if buffered && n.seg.InFlight(seg, w.round) {
				t.Fatalf("round %d node %d: segment %d is buffered but a request for it is still in flight (pre-fetch %v)", w.round, id, seg, n.seg.PrefetchPending(seg, w.round))
			}
		}
	}
	if w.dhtNet.Size() != len(w.order) {
		t.Fatalf("round %d: DHT has %d members, world %d", w.round, w.dhtNet.Size(), len(w.order))
	}
	for id := range w.nodes {
		// Owner reads the bitmap: a key is its own owner iff its bit is set.
		owner, _ := w.dhtNet.Owner(dht.ID(id))
		if member, alive := owner == dht.ID(id), w.nodes[id] != nil; member != alive {
			t.Fatalf("round %d: ring ID %d alive=%v but DHT membership bit=%v", w.round, overlay.NodeID(id), alive, member)
		}
		if pinged, alive := w.ping[id] != 0, w.nodes[id] != nil; pinged != alive {
			t.Fatalf("round %d: ring ID %d alive=%v but its ping table slot holds %d", w.round, overlay.NodeID(id), alive, w.ping[id])
		}
	}
	checkSlabs(t, w)
}

// checkSlabs asserts the node layout (see slab): every alive node sits in
// a slot of its own shard's slab, and no two share one; every slot a slab
// has handed out holds an alive node or is on its free list, once; and a
// free slot, on the list or not handed out yet, holds a zeroed node.
func checkSlabs(t *testing.T, w *World) {
	t.Helper()
	shard := map[*Node]int{}
	var handed [phaseShards]int
	for s := range w.slabs {
		sl := &w.slabs[s]
		for c, chunk := range sl.chunks {
			for i := range chunk {
				shard[&chunk[i]] = s
				if c < len(sl.chunks)-1 || i < sl.used {
					handed[s]++
				} else if !reflect.ValueOf(chunk[i]).IsZero() {
					t.Fatalf("round %d shard %d: slot %d of chunk %d is not handed out yet but holds node %d", w.round, s, i, c, chunk[i].ID)
				}
			}
		}
	}
	owner := map[*Node]overlay.NodeID{}
	var alive [phaseShards]int
	for _, id := range w.order {
		n := w.nodes[id]
		if s, ok := shard[n]; !ok || s != w.shardOf(id) {
			t.Fatalf("round %d: node %d of shard %d is not in its shard's slab (in a slab: %v, shard %d)", w.round, id, w.shardOf(id), ok, s)
		}
		if other, ok := owner[n]; ok {
			t.Fatalf("round %d: nodes %d and %d share a slot", w.round, other, id)
		}
		owner[n] = id
		alive[w.shardOf(id)]++
	}
	for s := range w.slabs {
		free := w.slabs[s].free
		for _, f := range free {
			if fs, ok := shard[f]; !ok || fs != s {
				t.Fatalf("round %d shard %d: a free slot lies outside the shard's slab", w.round, s)
			}
			if id, ok := owner[f]; ok {
				t.Fatalf("round %d shard %d: free slot holds alive node %d, or is listed twice", w.round, s, id)
			}
			if !reflect.ValueOf(*f).IsZero() {
				t.Fatalf("round %d shard %d: free slot holds node %d, not a zeroed node", w.round, s, f.ID)
			}
			owner[f] = -1
		}
		if handed[s] != alive[s]+len(free) {
			t.Fatalf("round %d shard %d: %d slots handed out, %d alive nodes and %d free slots", w.round, s, handed[s], alive[s], len(free))
		}
	}
}

// backedUp lists, ascending, the segments n holds in its VoD backup: the
// backup plane of its tracker, read over the tracker's span.
func backedUp(n *Node) []segment.ID {
	var ids []segment.ID
	for id := n.seg.Lo(); id < n.seg.Lo()+segment.ID(n.seg.Size()); id++ {
		if n.seg.BackedUp(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestNodeStateLayout pins the size of the per-node state a world holds
// once per node: the tracker's slot record, the Peer Table's overheard row
// and the Rate Controller's neighbour row — each read through the element
// type of the slice that holds it, since all three are unexported — and
// the Node itself, whose 480-byte limit is a malloc size class. A field
// that widens one of them fails here before it shows as resident memory.
// The limits assume 8-byte words.
func TestNodeStateLayout(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the limits are for 64-bit builds")
	}
	elem := func(owner any, field string) uintptr {
		f, ok := reflect.TypeOf(owner).FieldByName(field)
		if !ok || f.Type.Kind() != reflect.Slice {
			t.Errorf("%T has no slice field %s", owner, field)
			return 0
		}
		return f.Type.Elem().Size()
	}
	for _, row := range []struct {
		name  string
		size  uintptr
		limit uintptr
	}{
		{"tracker slot record", elem(buffer.Track{}, "recs"), 16},
		{"overheard row", elem(overlay.PeerTable{}, "overheard"), 16},
		{"rate-controller row", elem(bandwidth.Controller{}, "stats"), 40},
		{"core.Node", unsafe.Sizeof(Node{}), 480},
	} {
		t.Logf("%s: %d B", row.name, row.size)
		if row.size > row.limit {
			t.Errorf("%s takes %d B, limit %d", row.name, row.size, row.limit)
		}
	}
}
