package livenet

import (
	"cmp"
	"reflect"
	"slices"
	"sort"
	"testing"

	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// nullTransport swallows everything a peer sends.
type nullTransport struct{}

func (nullTransport) Send(int, *Message) bool        { return true }
func (nullTransport) Members(int) []int              { return nil }
func (nullTransport) AwaitQuiet(func(int, *Message)) {}

// candidatesPerID is the per-ID candidate enumerator the livenet ran before
// it moved onto the word path, kept as the differential oracle: walk every
// linked neighbour's map one segment ID at a time through Map.Has, collect
// suppliers per segment, sort by ID. The fetch window is the peer's own
// buffer window — the floor at the playback position the retired code
// applied, plus the ceiling the word path adds (a segment past the own
// window cannot be stored, so asking for it wastes budget; on a live mesh
// no map reaches that far). Suppliers are listed in the given neighbour
// order; asked is the set of segments with a pull or a rescue out.
func candidatesPerID(p *peer, order []int, asked map[segment.ID]bool) []scheduler.Candidate {
	found := map[segment.ID][]scheduler.Supplier{}
	for _, i := range order {
		nb := p.nbrs[i]
		w := segment.Window{Lo: nb.m.Lo, Hi: nb.m.Lo + segment.ID(nb.m.Size)}.Intersect(p.buf.Window())
		for id := w.Lo; id < w.Hi; id++ {
			if !nb.m.Has(id) || p.buf.Has(id) || asked[id] {
				continue
			}
			pft, _ := nb.m.PositionFromTail(id)
			found[id] = append(found[id], scheduler.Supplier{
				Node: nb.id, Rate: p.ctrl.Rate(nb.id), PositionFromTail: pft,
			})
		}
	}
	cands := make([]scheduler.Candidate, 0, len(found))
	for id, sup := range found {
		cands = append(cands, scheduler.Candidate{ID: id, Suppliers: sup})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
	return cands
}

// rotatedOrder lists the indices of the neighbours that have announced a
// map, ascending, rotated the way the peer rotates its supplier list.
func rotatedOrder(p *peer, period int) []int {
	var order []int
	for i, nb := range p.nbrs {
		if nb.m.Size > 0 {
			order = append(order, i)
		}
	}
	if len(order) == 0 {
		return nil
	}
	k := supplierRotation(p.cfg.Seed, p.id, period, len(order))
	return append(order[k:len(order):len(order)], order[:k]...)
}

// randomPeer builds a peer mid-session: a half-full buffer, linked
// neighbours whose maps are misaligned with it in both directions and
// partially stale (some never announced, some whole windows behind),
// differing rate estimates, and pulls and rescues marked in its tracker —
// some still out in period, some whose retry bound has just passed. The
// second result is the set still out: the oracle's in-flight record, kept
// apart from the tracker under test.
func randomPeer(rng *sim.RNG, size, period int) (*peer, map[segment.ID]bool) {
	cfg := DefaultConfig()
	cfg.BufferSegments = size
	cfg.Seed = rng.Uint64()
	lo := segment.ID(rng.Intn(3000))
	p := newPeer(nullTransport{}, 1+rng.Intn(500), cfg, dht.NewSpace(ringSpace), &Stats{}, false, lo, 0, new(planScratch))
	for i := 0; i < size; i++ {
		if rng.Intn(2) == 0 {
			p.buf.Insert(lo + segment.ID(i))
		}
	}
	for n := rng.Intn(12); n > 0; n-- {
		id := 1000 + rng.Intn(400)
		nb := p.link(id, 0)
		switch rng.Intn(8) {
		case 0:
			// linked, no map heard yet
		case 1:
			nb.m = randomMap(rng, size, lo-segment.ID(size+rng.Intn(50))) // a whole window behind
		default:
			nb.m = randomMap(rng, size, lo+segment.ID(rng.Intn(60))-40) // stale by a few periods, or a little ahead
		}
		if rng.Intn(2) == 0 {
			p.ctrl.NoteRequested(id, 3)
			p.ctrl.ObserveDelivery(id, 0.1+rng.Float64())
		}
	}
	p.ctrl.Tick()
	pulls, rescues := map[segment.ID]int{}, map[segment.ID]int{}
	for n := rng.Intn(26); n > 0; n-- {
		seg, expiry := lo+segment.ID(rng.Intn(size)), period+rng.Intn(3)
		if n > 6 {
			p.seg.MarkGossip(seg, expiry, 0)
			pulls[seg] = expiry
		} else {
			p.seg.MarkPrefetch(seg, expiry)
			rescues[seg] = expiry
		}
	}
	asked := map[segment.ID]bool{}
	for seg := lo; seg < lo+segment.ID(size); seg++ {
		asked[seg] = pulls[seg] > period || rescues[seg] > period
	}
	return p, asked
}

func randomMap(rng *sim.RNG, size int, lo segment.ID) buffer.Map {
	b := buffer.New(size, lo)
	for i := 0; i < size; i++ {
		if rng.Intn(3) != 0 {
			b.Insert(b.Lo() + segment.ID(i))
		}
	}
	return b.Snapshot()
}

// TestCandidatesMatchPerIDOracle differentially tests the word-path
// enumeration against the retired per-ID enumerator: same candidate IDs,
// same supplier sets in the same order, same rates and PositionFromTail.
func TestCandidatesMatchPerIDOracle(t *testing.T) {
	rng := sim.DeriveRNG(1, 0xca4d)
	compared := 0
	for trial := 0; trial < 400; trial++ {
		size := 600
		if trial%4 == 3 {
			size = 1 + rng.Intn(300) // odd sizes: partial last words, single-word windows
		}
		period := rng.Intn(1000)
		p, asked := randomPeer(rng, size, period)

		got := p.candidates(period)
		want := candidatesPerID(p, rotatedOrder(p, period), asked)

		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, oracle %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("trial %d cand %d: ID %d, oracle %d", trial, i, got[i].ID, want[i].ID)
			}
			if !slices.Equal(got[i].Suppliers, want[i].Suppliers) {
				t.Fatalf("trial %d seg %d: suppliers %+v, oracle %+v", trial, got[i].ID, got[i].Suppliers, want[i].Suppliers)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no candidates were ever enumerated; the differential test exercised nothing")
	}
}

// TestOverheardMatchesMapReference drives the dense adoption pool through
// random histories — gossip heard from linked and unlinked senders, naming
// self, off-ring and negative IDs and the same ID twice; links, unlinks and
// forgets; periods that expire some entries — against the map[int]int it
// replaced, with the one intended difference that an off-ring ID is refused
// where gossip enters. After every step the held IDs with their periods,
// and the candidates AppendOverheard lists, must match the reference's.
func TestOverheardMatchesMapReference(t *testing.T) {
	rng := sim.DeriveRNG(1, 0x0e4d)
	cfg := DefaultConfig()
	ttl := cfg.sightTTL()
	const self = 5
	pick := func() int {
		switch rng.Intn(10) {
		case 0:
			return self
		case 1:
			return []int{-1, -7, ringSpace, ringSpace + 3}[rng.Intn(4)]
		case 2:
			return ringSpace - 1 - rng.Intn(3)
		default:
			return rng.Intn(40)
		}
	}
	held, listed := 0, 0
	for trial := 0; trial < 60; trial++ {
		space := dht.NewSpace(ringSpace)
		p := newPeer(nullTransport{}, self, cfg, space, &Stats{}, false, 0, 0, new(planScratch))
		members := ringMembers(space, nil)
		ref := map[int]int{} // the retired pool: ID -> period heard
		now := 0
		for step := 0; step < 200; step++ {
			switch rng.Intn(6) {
			case 0, 1:
				gossip := make([]int, rng.Intn(5))
				for i := range gossip {
					gossip[i] = pick()
				}
				if len(gossip) > 1 && rng.Intn(3) == 0 {
					gossip[1] = gossip[0]
				}
				p.handle(&Message{From: rng.Intn(40), Kind: msgMap, Gossip: gossip, Period: now})
				for _, g := range gossip {
					if g != self && !p.linked(g) && onRing(g) {
						ref[g] = now
					}
				}
			case 2:
				if id := rng.Intn(40); id != self {
					p.link(id, now)
					delete(ref, id)
				}
			case 3:
				if len(p.nbrs) > 0 {
					p.unlink(rng.Intn(len(p.nbrs)))
				}
			case 4:
				id := pick()
				p.forget(id)
				delete(ref, id)
			case 5:
				now += 1 + rng.Intn(ttl)
				p.periodBegin(now, cfg.posFor(now), members)
				for id, seen := range ref {
					if now-seen > ttl {
						delete(ref, id)
					}
				}
			}

			got, floor := map[int]int{}, p.overheardFloor()
			for id, heard := range p.overheard {
				if heard > floor {
					got[id] = int(heard) - 1
				}
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("trial %d step %d (period %d): pool %v, reference %v", trial, step, now, got, ref)
			}
			if len(p.overheard) > ringSpace {
				t.Fatalf("trial %d step %d: the table grew to %d entries, past the ring", trial, step, len(p.overheard))
			}
			cands := p.view.AppendOverheard(nil)
			var want []protocol.CandidateSource
			for id := range ref {
				want = append(want, protocol.CandidateSource{
					ID:      overlay.NodeID(id),
					Latency: sim.Time(scheduler.Jitter(cfg.Seed, self, uint64(id)) % 1000),
				})
			}
			byID := func(a, b protocol.CandidateSource) int { return cmp.Compare(a.ID, b.ID) }
			slices.SortFunc(cands, byID)
			slices.SortFunc(want, byID)
			if !slices.Equal(cands, want) {
				t.Fatalf("trial %d step %d: AppendOverheard %v, reference %v", trial, step, cands, want)
			}
			held += len(ref)
			listed += len(cands)
		}
	}
	if held == 0 || listed == 0 {
		t.Fatal("the histories never held an overheard ID; the reference test exercised nothing")
	}
}

// TestSupplierRotation pins the supplier order as a pure function of
// (seed, peer, period): the ascending neighbour list rotated by
// supplierRotation, the same on every call, and not the same every period.
func TestSupplierRotation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	const lo = segment.ID(700)
	p := newPeer(nullTransport{}, 17, cfg, dht.NewSpace(ringSpace), &Stats{}, false, lo, 0, new(planScratch))
	// One segment every neighbour holds and the peer lacks, so its
	// candidate lists the whole supplier order.
	seg := lo + 100
	ids := []int{3, 8, 21, 40, 77, 130}
	for i, id := range ids {
		b := buffer.New(cfg.BufferSegments, lo-segment.ID(10*i))
		b.Insert(seg)
		p.link(id, 0).m = b.Snapshot()
	}
	order := func(period int) []int {
		cands := p.candidates(period)
		if len(cands) != 1 || cands[0].ID != seg {
			t.Fatalf("period %d: candidates %+v, want only segment %d", period, cands, seg)
		}
		var out []int
		for _, s := range cands[0].Suppliers {
			out = append(out, s.Node)
		}
		return out
	}
	starts := map[int]bool{}
	for period := 0; period < 40; period++ {
		got := order(period)
		k := supplierRotation(p.cfg.Seed, p.id, period, len(ids))
		want := append(slices.Clone(ids[k:]), ids[:k]...)
		if !slices.Equal(got, want) {
			t.Fatalf("period %d: supplier order %v, want ascending rotated by %d: %v", period, got, k, want)
		}
		if again := order(period); !slices.Equal(again, got) {
			t.Fatalf("period %d: order changed between calls: %v then %v", period, got, again)
		}
		starts[got[0]] = true
	}
	if len(starts) < 3 {
		t.Fatalf("40 periods started the supplier list at only %d distinct neighbours", len(starts))
	}
	same := true
	for period := 0; period < 8; period++ {
		same = same && supplierRotation(cfg.Seed, p.id, period, 6) == supplierRotation(cfg.Seed, p.id+1, period, 6)
	}
	if same {
		t.Fatal("two peers rotate identically over 8 periods")
	}
}

// periodAllocBound is how many heap allocations a warmed peer's period may
// make: the three payloads its announce hands to the transport — the
// buffer-map snapshot (the Map and its words) and the gossip arena its
// per-neighbour picks are carved from. Receivers keep them, so they cannot
// come from scratch. Everything else a period touches — neighbour words,
// candidate and supplier arenas, Algorithm 1's scratch, the serve plan, the
// carry queue, the rescue prediction — is reused.
const periodAllocBound = 3

// TestPeriodAllocations drives one peer through steady-state periods on
// the in-process transport — neighbours announce misaligned maps, ask it
// for segments and grant what it asked for — and holds its three planning
// phases plus periodServe to periodAllocBound allocations.
func TestPeriodAllocations(t *testing.T) {
	cfg := DefaultConfig()
	const self, nbrs = 4, 8
	nw := newNetwork()
	var ids []int
	for i := 0; i <= nbrs; i++ {
		ids = append(ids, nw.register())
	}
	p := newPeer(nw, self, cfg, dht.NewSpace(ringSpace), &Stats{}, false, 0, 0, new(planScratch))
	members := ringMembers(p.space, ids)
	for _, id := range ids {
		if id != self {
			p.link(id, 0)
		}
	}

	// Every neighbour holds the stream up to the live edge; half of them
	// announce a window one period stale.
	const periods = 140
	maps := make([][]Message, periods)
	for at := range maps {
		for _, id := range ids {
			if id == self {
				continue
			}
			b := buffer.New(cfg.BufferSegments, cfg.posFor(at-id%2))
			for s := b.Lo(); s < segment.ID((at+1)*cfg.Rate); s++ {
				b.Insert(s)
			}
			m := b.Snapshot()
			maps[at] = append(maps[at], Message{From: id, Kind: msgMap, Map: &m, Period: at})
		}
	}
	var asked []Message // the peer's asks, read off the queue and answered next period
	collect := func(to int, m *Message) {
		if m.Kind == msgRequest {
			asked = append(asked, Message{From: to, Seg: m.Seg})
		}
	}
	period := 0
	step := func() {
		// What the network delivers between two ticks: the neighbours'
		// maps, grants for last period's asks, and asks for what the
		// peer holds.
		for _, m := range maps[period] {
			p.handle(&m)
		}
		for k, a := range asked {
			p.handle(&Message{From: a.From, Kind: msgData, Seg: a.Seg, Period: period, Deadline: sim.Time(70 * (k + 1))})
		}
		asked = asked[:0]
		for k, id := range ids {
			if seg := cfg.posFor(period) + segment.ID(k); id != self && p.buf.Has(seg) {
				p.handle(&Message{From: id, Kind: msgRequest, Seg: seg, Deadline: p.playDeadline(seg), Period: period})
			}
		}
		p.periodBegin(period, cfg.posFor(period), members)
		p.periodAnnounce()
		p.periodSchedule()
		p.periodServe()
		nw.AwaitQuiet(collect)
		period++
	}
	for period < 60 {
		step() // warm every scratch buffer to its steady-state size
	}
	delivered, asks, grants := p.st.Delivered, p.st.AsksSent, p.st.GrantsSent

	avg := testing.AllocsPerRun(periods-60-1, step)

	t.Logf("allocs per period: %.2f; delivered %d asks %d grants %d", avg, p.st.Delivered-delivered, p.st.AsksSent-asks, p.st.GrantsSent-grants)
	if avg > periodAllocBound {
		t.Errorf("a steady-state period allocates %.1f times, bound %d", avg, periodAllocBound)
	}
	if p.st.Delivered == delivered || p.st.AsksSent == asks || p.st.GrantsSent == grants {
		t.Fatalf("the measured periods moved no data: delivered %d->%d, asks %d->%d, grants %d->%d",
			delivered, p.st.Delivered, asks, p.st.AsksSent, grants, p.st.GrantsSent)
	}
}

// TestServeRarityMatchesNeighbourMaps checks the rarity the serve attaches
// to every ask on a warmed 400-peer mesh — PlanServe's once-per-segment
// memo over the peer's own callback — against protocol.SupplierRarity over
// the positions-from-tail of the segment in the peer's neighbours' maps,
// evaluated per ask. Each peer's period asks are served through its own
// serve input with room to grant them all, so every rarity shows.
func TestServeRarityMatchesNeighbourMaps(t *testing.T) {
	s, period := warmMesh()
	s.churn(period)
	s.plan(period) // every ask of the period is in its supplier's hands
	var sc protocol.ServeScratch
	asks, shared := 0, 0
	for _, p := range s.peers {
		if p == nil {
			continue
		}
		in := p.serveIn
		in.Carried, in.Fresh, in.QueueInto = p.carry, p.asks, nil
		in.Capacity = len(p.carry) + len(p.asks)
		seen := map[segment.ID]bool{}
		for _, r := range protocol.PlanServe(in, &sc).Granted {
			var positions []int
			for _, nb := range p.nbrs {
				if pft, ok := nb.m.PositionFromTail(r.ID); ok {
					positions = append(positions, pft)
				}
			}
			if want := protocol.SupplierRarity(p.cfg.BufferSegments, positions); r.Rarity != want {
				t.Fatalf("peer %d serves segment %d to %d at rarity %v; its neighbours' maps give %v",
					p.id, r.ID, r.Requester, r.Rarity, want)
			}
			asks++
			if seen[r.ID] {
				shared++
			}
			seen[r.ID] = true
		}
	}
	if asks < 1000 || shared == 0 {
		t.Fatalf("compared %d asks, %d of them for a segment asked of the same peer before; want > 1000 and some", asks, shared)
	}
	t.Logf("%d asks compared, %d served from the memo", asks, shared)
}
