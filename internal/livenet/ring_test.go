package livenet

import (
	"slices"
	"sort"
	"testing"

	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/sim"
)

// ringView is the rescue ring the livenet kept before the period's
// membership became one dht.Members bitmap, kept verbatim as the reference
// the bitmap's readers are tested against.
type ringView struct {
	space dht.Space
	ids   []int    // member peer IDs, sorted by ring position
	rings []dht.ID // ring positions, ascending
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

// dhtPeers is peerView.AppendDHTPeers as it read the ring view.
func (rv ringView) dhtPeers(self int, ring dht.ID, seed uint64) []protocol.CandidateSource {
	var dst []protocol.CandidateSource
	n := len(rv.ids)
	start := sort.Search(n, func(i int) bool { return rv.rings[i] > ring })
	for k := 0; k < n && len(dst) < 4; k++ {
		id := rv.ids[(start+k)%n]
		if id == self {
			continue
		}
		dst = append(dst, protocol.CandidateSource{
			ID:      overlay.NodeID(id),
			Latency: sim.Time(scheduler.Jitter(seed, uint64(self), uint64(id)) % 1000),
		})
	}
	return dst
}

// offRing are IDs with no rescue-ring position of their own. The old view
// placed them at the position of the in-ring ID they alias; the edges that
// admit IDs now keep them out, and the bitmap counts none of them a member.
var offRing = []int{-1, ringSpace, 1 << 20}

// ringCases returns the member lists the ring properties are checked on:
// the edge shapes — empty, the source alone, one receiver, two members
// straddling the top of the ring — and random lists from a handful of
// members to most of a large session, any of them salted with off-ring IDs.
func ringCases(space dht.Space) [][]int {
	top, bottom := peerOf(space, dht.ID(ringSpace-1)), peerOf(space, 1)
	cases := [][]int{
		nil,
		{0},
		{4242},
		{top, bottom},
		{0, top},
		append([]int{top, bottom}, offRing...),
		offRing,
	}
	rng := sim.DeriveRNG(25, 0x7149)
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		if trial%3 == 0 {
			n = 20 + rng.Intn(2500)
		}
		seen := map[int]bool{}
		var ids []int
		for len(ids) < n {
			id := rng.Intn(ringSpace)
			if trial%2 == 0 {
				id = rng.Intn(3 * n) // dense low IDs, as a registry hands them out
			}
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		if trial%4 == 1 {
			ids = append(ids, offRing[rng.Intn(len(offRing))])
		}
		cases = append(cases, ids)
	}
	return cases
}

// TestRingMembersMatchRingView pins the period's membership bitmap to the
// ring view it replaced: the same membership answer for every in-ring ID
// (and no membership for an off-ring one), the same rescue target for
// every key of a small ring and 10 000 sampled keys of a large one, and
// the same clockwise DHT walk from every member and from a few IDs off the
// member list. The view is built from the in-ring members: an off-ring ID
// aliased an in-ring position there.
func TestRingMembersMatchRingView(t *testing.T) {
	space := dht.NewSpace(ringSpace)
	rng := sim.DeriveRNG(25, 0x7e57)
	for ci, ids := range ringCases(space) {
		var inRing []int
		isMember := map[int]bool{}
		for _, id := range ids {
			isMember[id] = true
			if onRing(id) {
				inRing = append(inRing, id)
			}
		}
		rv := newRingView(space, inRing)
		p := &peer{space: space, members: ringMembers(space, ids)}
		p.view.p = p
		if got := p.members.Len(); got != len(inRing) {
			t.Fatalf("case %d: %d members on the ring, want the %d in-ring IDs", ci, got, len(inRing))
		}

		for id := 0; id < ringSpace; id++ {
			if p.alive(id) != isMember[id] {
				t.Fatalf("case %d: alive(%d) = %v, member list says %v", ci, id, p.alive(id), isMember[id])
			}
		}
		for _, id := range append(offRing, -ringSpace, 2*ringSpace+5) {
			if p.alive(id) {
				t.Fatalf("case %d: off-ring ID %d counted a member", ci, id)
			}
		}

		keys := ringSpace
		if len(inRing) > 64 {
			keys = 10000
		}
		for k := 0; k < keys; k++ {
			key := dht.ID(k)
			if keys < ringSpace {
				key = dht.ID(rng.Intn(ringSpace))
			}
			got, gotOK := p.keyHolder(key)
			want, wantOK := rv.owner(key)
			if gotOK != wantOK || (wantOK && got != want) {
				t.Fatalf("case %d key %d: rescue target %d/%v, ring view %d/%v", ci, key, got, gotOK, want, wantOK)
			}
		}

		walkers := slices.Clone(inRing)
		for len(walkers) < len(inRing)+4 {
			// A peer walking a ring it is not on yet: a joiner before the
			// registry lists it.
			if id := rng.Intn(ringSpace); !isMember[id] {
				walkers = append(walkers, id)
			}
		}
		for _, id := range walkers {
			p.id, p.ring, p.cfg.Seed = id, ringOf(space, id), uint64(ci)
			got := p.view.AppendDHTPeers(nil)
			if want := rv.dhtPeers(id, p.ring, p.cfg.Seed); !slices.Equal(got, want) {
				t.Fatalf("case %d peer %d: DHT walk %v, ring view %v", ci, id, got, want)
			}
		}
	}
}

// TestPeerOfInvertsRingOf: peerOf maps every ring position back to the one
// in-ring ID placed there.
func TestPeerOfInvertsRingOf(t *testing.T) {
	space := dht.NewSpace(ringSpace)
	for id := 0; id < ringSpace; id++ {
		if got := peerOf(space, ringOf(space, id)); got != id {
			t.Fatalf("peerOf(ringOf(%d)) = %d", id, got)
		}
	}
}
