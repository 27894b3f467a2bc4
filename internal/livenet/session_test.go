package livenet

import (
	"slices"
	"testing"
	"time"

	"continustreaming/internal/dht"
)

// steppedSession builds cfg's in-process mesh for a test to tick by hand:
// no ticker, and a period long enough that no barrier bound ever expires.
// Nothing but the ticker and the barrier bound reads Config.Period, so
// the peers decide exactly as they would at any other pace.
func steppedSession(cfg Config) *session {
	cfg.Period = 2 * time.Second
	return newSession(cfg)
}

// manualSession is a stepped session of the default configuration.
func manualSession(peers int, seed uint64) *session {
	cfg := DefaultConfig()
	cfg.Peers, cfg.Seed = peers, seed
	return steppedSession(cfg)
}

// runStepped is Run for tests that need periods, not pacing: the same
// session, ticked back to back. TestLiveSessionDeliversAndPlays covers
// Run and its ticker.
func runStepped(cfg Config, periods int) Stats {
	s := steppedSession(cfg)
	for period := 0; period < periods; period++ {
		s.tick(period)
	}
	return s.close()
}

// TestPlanServeBarrier pins the barrier between the planning phases and
// the serve phase: when a period's serve pass starts, every ask the
// schedule pass sent is in its supplier's asks — none still in an inbox,
// none in the hands of a goroutine that has not run yet — and nothing at
// all is in flight.
func TestPlanServeBarrier(t *testing.T) {
	s := manualSession(60, 3)
	defer s.close()
	total := int64(0)
	for period := 0; period < 30; period++ {
		before := s.st.asksSent.Load()
		s.plan(period)

		sent := s.st.asksSent.Load() - before
		total += sent
		if got, want := s.nw.handled.Load(), s.nw.sent.Load(); got != want {
			t.Fatalf("period %d: %d of %d messages handled when the serve pass starts", period, got, want)
		}
		queued := int64(0)
		for _, p := range s.peers {
			if p != nil {
				p.mu.Lock()
				queued += int64(len(p.asks))
				p.mu.Unlock()
			}
		}
		if queued != sent {
			t.Fatalf("period %d: %d asks sent by the schedule pass, %d in their suppliers' hands at serve time", period, sent, queued)
		}
		if got := s.st.asksReceived.Load(); got != before+sent {
			t.Fatalf("period %d: %d asks received of %d sent", period, got, before+sent)
		}
		s.serve(period)
	}
	if total == 0 {
		t.Fatal("no ask was ever sent; the barrier test exercised nothing")
	}
	if d := s.nw.dropped.Load(); d != 0 {
		t.Fatalf("%d messages dropped into saturated inboxes on an idle host", d)
	}
}

// TestKilledPeerDoesNotWedgeBarrier checks the in-flight accounting across
// a kill: messages left in a stopped peer's inbox, and sends to it after
// it is gone, must not leave the barrier waiting out its bound.
func TestKilledPeerDoesNotWedgeBarrier(t *testing.T) {
	s := manualSession(40, 5)
	s.churnAt[8] = []ChurnEvent{{Period: 8, KillFraction: 0.3}}
	s.churnAt[10] = []ChurnEvent{{Period: 10, Join: 6}}
	defer s.close()
	for period := 0; period < 16; period++ {
		start := time.Now()
		s.tick(period)
		if took := time.Since(start); took > s.cfg.Period/2 {
			t.Fatalf("period %d took %v: a barrier waited out its %v bound", period, took, s.cfg.Period/2)
		}
		if got, want := s.nw.handled.Load(), s.nw.sent.Load(); got > want {
			t.Fatalf("period %d: %d messages handled, only %d sent", period, got, want)
		}
	}
	if s.stats.Killed == 0 || s.stats.Joined != 6 {
		t.Fatalf("churn not applied: killed=%d joined=%d", s.stats.Killed, s.stats.Joined)
	}
}

// TestSaturatedInboxCounted checks that a send into a full inbox is
// counted as a transport drop, and a send to a vanished peer — or to an ID
// the registry never handed out — is not; and that the registry lists its
// members ascending whatever order they came and went in.
func TestSaturatedInboxCounted(t *testing.T) {
	nw := newNetwork()
	id, _ := nw.register(2)
	for i := 0; i < 5; i++ {
		nw.Send(id, Message{Kind: msgBye})
	}
	if got := nw.dropped.Load(); got != 3 {
		t.Fatalf("dropped = %d after 5 sends into a 2-slot inbox, want 3", got)
	}
	if got := nw.sent.Load(); got != 2 {
		t.Fatalf("sent = %d, want the 2 accepted messages", got)
	}
	nw.unregister(id)
	for _, to := range []struct {
		name string
		id   int
	}{
		{"an unregistered peer", id},
		{"a negative ID", -1},
		{"one past the registry", id + 1},
	} {
		if nw.Send(to.id, Message{Kind: msgBye}) {
			t.Fatalf("send to %s succeeded", to.name)
		}
		if got := nw.dropped.Load(); got != 3 {
			t.Fatalf("dropped = %d after a send to %s, want it unchanged at 3", got, to.name)
		}
	}

	const reg = -1 // register the next ID; any other op unregisters that ID
	var want []int
	for step, op := range []int{reg, reg, reg, 2, reg, 1, reg, reg, 5, 3} {
		if op == reg {
			next, _ := nw.register(1)
			want = append(want, next)
		} else {
			nw.unregister(op)
			want = slices.DeleteFunc(want, func(id int) bool { return id == op })
		}
		if got := nw.Members(step); !slices.Equal(got, want) {
			t.Fatalf("step %d: members %v, want %v", step, got, want)
		}
	}
}

// TestInboxCapFollowsFanIn pins the inbox sizing as a function of the
// peer's own fan-in: a receiver's inbox does not grow with the audience,
// and the source's grows only by the bootstrap burst.
func TestInboxCapFollowsFanIn(t *testing.T) {
	small, large := DefaultConfig(), DefaultConfig()
	small.Peers, large.Peers = 24, 4000
	if a, b := small.inboxCap(false), large.inboxCap(false); a != b {
		t.Fatalf("receiver inbox grows with the audience: %d at 24 peers, %d at 4000", a, b)
	}
	if a, b := small.inboxCap(true), large.inboxCap(true); b-a != large.Peers-small.Peers {
		t.Fatalf("source inbox %d at 24 peers, %d at 4000: want the difference to be the bootstrap burst", a, b)
	}
	wide := small
	wide.M, wide.OutboundPerPeriod = 2*small.M, 2*small.OutboundPerPeriod
	if wide.inboxCap(false) <= small.inboxCap(false) {
		t.Fatal("a wider, faster peer did not get a larger inbox")
	}
}

// TestOverheardExpiresInProcess pins the adoption pool's expiry on the
// channel transport: an overheard ID nobody mentions again is forgotten
// sightTTL periods later, one that keeps being mentioned is kept.
func TestOverheardExpiresInProcess(t *testing.T) {
	cfg := DefaultConfig()
	nw := newNetwork()
	id, inbox := nw.register(8)
	p := newPeer(nw, id, inbox, cfg, dht.NewSpace(ringSpace), &counters{}, false, 0, 0)
	ttl := cfg.sightTTL()
	p.handle(Message{From: 1, Kind: msgMap, Gossip: []int{50, 51}})
	for now := 1; now <= ttl+1; now++ {
		p.periodBegin(now, cfg.posFor(now), ringMembers(p.space, nil))
		p.handle(Message{From: 1, Kind: msgMap, Gossip: []int{51}, Period: now})
		_, silent := p.overheard[50]
		_, mentioned := p.overheard[51]
		if silent != (now <= ttl) || !mentioned {
			t.Fatalf("period %d (TTL %d): holds the ID last heard at period 0: %v, the ID heard this period: %v",
				now, ttl, silent, mentioned)
		}
	}
}

// TestSourceAnswersConnectAsRendezvous pins the rendezvous reply on the
// channel transport: the source's ConnectOK carries its period and a
// sample of at most M+2 members that names neither the asker nor the
// source; any other peer's carries neither.
func TestSourceAnswersConnectAsRendezvous(t *testing.T) {
	s := manualSession(12, 9)
	defer s.close()
	const last = 3
	for period := 0; period <= last; period++ {
		s.tick(period)
	}
	asker, inbox := s.nw.register(8)
	connect := func(to int) Message {
		t.Helper()
		s.nw.Send(to, Message{From: asker, Kind: msgConnect})
		select {
		case m := <-inbox:
			s.nw.Handled(1)
			if m.Kind != msgConnectOK || m.From != to || m.Map == nil {
				t.Fatalf("peer %d answered a Connect with %+v", to, m)
			}
			return m
		case <-time.After(10 * time.Second):
			t.Fatalf("peer %d never answered the Connect", to)
			return Message{}
		}
	}
	ok := connect(0)
	if ok.Deadline != last {
		t.Errorf("the source stamped period %d on its ConnectOK, want %d", ok.Deadline, last)
	}
	if n := len(ok.Gossip); n == 0 || n > s.cfg.M+2 {
		t.Errorf("the source's sample has %d members, want 1..%d", n, s.cfg.M+2)
	}
	seen := map[int]bool{}
	for _, g := range ok.Gossip {
		if g == asker || g == 0 || seen[g] || s.peers[g] == nil {
			t.Errorf("sample %v names the asker (%d), the source, a stranger or a member twice", ok.Gossip, asker)
		}
		seen[g] = true
	}
	if ok := connect(1); ok.Deadline != 0 || ok.Gossip != nil {
		t.Errorf("a non-source ConnectOK carries period %d and sample %v, want neither", ok.Deadline, ok.Gossip)
	}
}
