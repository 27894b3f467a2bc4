package livenet

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"continustreaming/internal/dht"
	"continustreaming/internal/segment"
)

// manualSession is an in-process session of the default configuration,
// for a test to tick by hand.
func manualSession(peers int, seed uint64) *session {
	cfg := DefaultConfig()
	cfg.Peers, cfg.Seed = peers, seed
	return newSession(cfg)
}

// runStepped is Run for tests that need periods, not pacing: the same
// session, ticked back to back. Nothing but Run's ticker reads
// Config.Period, so the peers decide exactly as they would at any pace
// (TestRunMatchesStepped).
func runStepped(cfg Config, periods int) Stats {
	s := newSession(cfg)
	for period := 0; period < periods; period++ {
		s.tick(period)
	}
	return s.result()
}

// churnedConfig is the churned session the reproducibility tests replay:
// 120 peers, a quarter killed at period 20, 30 joiners at period 24.
func churnedConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Peers, cfg.Seed = 120, seed
	cfg.Churn = []ChurnEvent{{Period: 20, KillFraction: 0.25}, {Period: 24, Join: 30}}
	return cfg
}

const churnedPeriods = 60

// TestPlanServeBarrier pins the barrier between the planning phases and
// the serve phase: when a period's serve pass starts, nothing is queued
// and every ask the schedule pass sent is in its supplier's asks.
func TestPlanServeBarrier(t *testing.T) {
	s := manualSession(60, 3)
	total := int64(0)
	for period := 0; period < 30; period++ {
		before := s.stats.AsksSent
		s.plan(period)

		sent := s.stats.AsksSent - before
		total += sent
		if n := len(s.nw.queue); n != 0 {
			t.Fatalf("period %d: %d messages still queued when the serve pass starts", period, n)
		}
		queued := int64(0)
		for _, p := range s.peers {
			if p != nil {
				queued += int64(len(p.asks))
			}
		}
		if queued != sent {
			t.Fatalf("period %d: %d asks sent by the schedule pass, %d in their suppliers' hands at serve time", period, sent, queued)
		}
		if got := s.stats.AsksReceived; got != before+sent {
			t.Fatalf("period %d: %d asks received of %d sent", period, got, before+sent)
		}
		s.serve(period)
	}
	if total == 0 {
		t.Fatal("no ask was ever sent; the barrier test exercised nothing")
	}
}

// TestKilledPeerDoesNotWedgeBarrier checks the queue across a kill: mail
// queued to a peer killed mid-period is never handled, sends to it
// afterwards fail, and scripted churn around it still runs its course.
func TestKilledPeerDoesNotWedgeBarrier(t *testing.T) {
	s := manualSession(40, 5)
	s.churnAt[8] = []ChurnEvent{{Period: 8, KillFraction: 0.3}}
	s.churnAt[10] = []ChurnEvent{{Period: 10, Join: 6}}
	for period := 0; period < 16; period++ {
		s.churn(period)
		s.plan(period)
		if period == 4 {
			const victim, asker = 7, 3
			p := s.peers[victim]
			asks, received := len(p.asks), s.stats.AsksReceived
			for i := 0; i < 3; i++ {
				if !s.nw.Send(victim, &Message{From: asker, Kind: msgRequest, Seg: p.buf.Lo(), Period: period}) {
					t.Fatal("a send to a live peer was refused")
				}
			}
			s.kill(victim)
			s.nw.AwaitQuiet(s.deliverFn)
			if len(p.asks) != asks || s.stats.AsksReceived != received {
				t.Fatalf("a killed peer handled mail queued before its death: asks %d -> %d, received %d -> %d",
					asks, len(p.asks), received, s.stats.AsksReceived)
			}
			if s.nw.Send(victim, &Message{From: asker, Kind: msgRequest}) {
				t.Fatal("a send to the killed peer was accepted")
			}
		}
		s.serve(period)
	}
	if s.stats.Killed < 2 || s.stats.Joined != 6 {
		t.Fatalf("churn not applied: killed=%d joined=%d", s.stats.Killed, s.stats.Joined)
	}
}

// TestSaturatedInboxCounted checks that a send to a vanished peer — or to
// an ID the registry never handed out — is refused, and that the registry
// lists its members ascending whatever order they came and went in.
func TestSaturatedInboxCounted(t *testing.T) {
	nw := newNetwork()
	id := nw.register()
	nw.unregister(id)
	for _, to := range []struct {
		name string
		id   int
	}{
		{"an unregistered peer", id},
		{"a negative ID", -1},
		{"one past the registry", id + 1},
	} {
		if nw.Send(to.id, &Message{Kind: msgBye}) {
			t.Fatalf("send to %s succeeded", to.name)
		}
	}
	if got := len(nw.queue); got != 0 {
		t.Fatalf("queued = %d after refused sends, want 0", got)
	}

	const reg = -1 // register the next ID; any other op unregisters that ID
	var want []int
	for step, op := range []int{reg, reg, reg, 2, reg, 1, reg, reg, 5, 3} {
		if op == reg {
			want = append(want, nw.register())
		} else {
			nw.unregister(op)
			want = slices.DeleteFunc(want, func(id int) bool { return id == op })
		}
		if got := nw.Members(step); !slices.Equal(got, want) {
			t.Fatalf("step %d: members %v, want %v", step, got, want)
		}
	}
}

// TestDeliveryIsSendOrder pins the in-process queue's contract: messages
// are handed over in the order they were sent, whoever they are for; what
// is sent while handling waits behind what was already queued and is
// handed over in the same drain; and a handler may send from inside
// handle, because nothing is handed over from inside Send.
func TestDeliveryIsSendOrder(t *testing.T) {
	nw := newNetwork()
	for i := 0; i < 4; i++ {
		nw.register()
	}
	type hop struct{ to, seg int }
	var got []hop
	record := func(to int, m *Message) {
		got = append(got, hop{to, int(m.Seg)})
		if m.Seg < 10 {
			nw.Send((to+1)%4, &Message{Seg: m.Seg + 10}) // a reply, sent while handling
		}
	}
	for _, h := range []hop{{3, 0}, {1, 1}, {3, 2}, {0, 3}} {
		nw.Send(h.to, &Message{Seg: segment.ID(h.seg)})
	}
	nw.AwaitQuiet(record)
	want := []hop{{3, 0}, {1, 1}, {3, 2}, {0, 3}, {0, 10}, {2, 11}, {0, 12}, {1, 13}}
	if !slices.Equal(got, want) {
		t.Fatalf("handed over %v, want send order %v", got, want)
	}
	if len(nw.queue) != 0 {
		t.Fatalf("%d messages left queued after the drain", len(nw.queue))
	}

	// A peer that answers a Connect sends its ConnectOK from inside handle
	// — here once to itself, which a hand-over from inside Send would
	// re-enter handle with, half-way through the Connect.
	s := manualSession(30, 1)
	stranger := 2
	for s.peers[1].linked(stranger) {
		stranger++
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.nw.Send(2, &Message{From: 2, Kind: msgConnect})
		s.nw.Send(stranger, &Message{From: 1, Kind: msgConnect})
		s.nw.AwaitQuiet(s.deliverFn)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a handler sending from inside handle hung the drain")
	}
	if !s.peers[stranger].linked(1) || !s.peers[1].linked(stranger) {
		t.Fatalf("peer %d's ConnectOK, sent while handling the Connect, was not handled in the same drain", stranger)
	}
}

// TestInProcessSessionStartsNoGoroutines: an in-process session runs on
// its caller's goroutine, however many peers it hosts.
func TestInProcessSessionStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := manualSession(400, 2)
	s.churnAt[3] = []ChurnEvent{{Period: 3, KillFraction: 0.25, Join: 40}}
	for period := 0; period < 6; period++ {
		s.tick(period)
		if n := runtime.NumGoroutine(); n > before+2 {
			t.Fatalf("period %d: %d goroutines running, %d before the 400-peer session", period, n, before)
		}
	}
}

// TestSteppedSessionReproducible: an in-process session is a function of
// its configuration. Three runs of one churned seed return identical
// Stats; another seed returns different ones.
func TestSteppedSessionReproducible(t *testing.T) {
	first := runStepped(churnedConfig(7), churnedPeriods)
	if first.Killed == 0 || first.Joined != 30 || first.Delivered == 0 {
		t.Fatalf("the churn script did not run: %+v", first)
	}
	for run := 2; run <= 3; run++ {
		if again := runStepped(churnedConfig(7), churnedPeriods); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d of seed 7 differs:\n%+v\nfirst run:\n%+v", run, again, first)
		}
	}
	if other := runStepped(churnedConfig(8), churnedPeriods); reflect.DeepEqual(other, first) {
		t.Fatal("seeds 7 and 8 returned identical Stats")
	}
}

// TestRunMatchesStepped: the ticker paces Run and decides nothing, so a
// paced session returns the stepped session's Stats.
func TestRunMatchesStepped(t *testing.T) {
	cfg := churnedConfig(7)
	cfg.Period = 3 * time.Millisecond
	paced := Run(context.Background(), cfg, churnedPeriods)
	stepped := runStepped(cfg, churnedPeriods)
	if paced.TransportDropped != 0 || stepped.TransportDropped != 0 {
		t.Fatalf("drops: paced %d, stepped %d", paced.TransportDropped, stepped.TransportDropped)
	}
	if !reflect.DeepEqual(paced, stepped) {
		t.Fatalf("Run at %v:\n%+v\nstepped:\n%+v", cfg.Period, paced, stepped)
	}
}

// TestLiveSessionGolden pins the churned session of seed 7 the way the
// simulator's Step1k row pins its world: the FNV-1a hash of its Stats, so
// any change to what an in-process session decides shows up as a changed
// constant. Re-record it only when a change means to move the livenet's
// decisions, and say so.
func TestLiveSessionGolden(t *testing.T) {
	const golden = "ba1625c16a8fab61"
	st := runStepped(churnedConfig(7), churnedPeriods)
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", st)
	got := fmt.Sprintf("%016x", h.Sum64())
	t.Logf("continuity %.4f, delivered %d, rescued %d/%d, replaced %d, fingerprint %s",
		st.Continuity, st.Delivered, st.Rescued, st.RescueAsked, st.Replaced, got)
	if got != golden {
		t.Errorf("fingerprint %s, want %s: the in-process session no longer reproduces the golden run", got, golden)
	}
}

// TestOverheardExpiresInProcess pins the adoption pool's expiry on the
// in-process transport: an overheard ID nobody mentions again is forgotten
// sightTTL periods later, one that keeps being mentioned is kept.
func TestOverheardExpiresInProcess(t *testing.T) {
	cfg := DefaultConfig()
	nw := newNetwork()
	p := newPeer(nw, nw.register(), cfg, dht.NewSpace(ringSpace), &Stats{}, false, 0, 0, new(planScratch))
	ttl := cfg.sightTTL()
	p.handle(&Message{From: 1, Kind: msgMap, Gossip: []int{50, 51}})
	for now := 1; now <= ttl+1; now++ {
		p.periodBegin(now, cfg.posFor(now), ringMembers(p.space, nil))
		p.handle(&Message{From: 1, Kind: msgMap, Gossip: []int{51}, Period: now})
		floor := p.overheardFloor()
		silent, mentioned := p.overheard[50] > floor, p.overheard[51] > floor
		if silent != (now <= ttl) || !mentioned {
			t.Fatalf("period %d (TTL %d): holds the ID last heard at period 0: %v, the ID heard this period: %v",
				now, ttl, silent, mentioned)
		}
	}
}

// TestSourceAnswersConnectAsRendezvous pins the rendezvous reply on the
// in-process transport: the source's ConnectOK carries its period and a
// sample of at most M+2 members that names neither the asker nor the
// source; any other peer's carries neither.
func TestSourceAnswersConnectAsRendezvous(t *testing.T) {
	s := manualSession(12, 9)
	const last = 3
	for period := 0; period <= last; period++ {
		s.tick(period)
	}
	asker := s.nw.register() // registered, hosted by nobody: its mail is read off the queue
	connect := func(to int) Message {
		t.Helper()
		s.peers[to].handle(&Message{From: asker, Kind: msgConnect})
		if len(s.nw.queue) != 1 {
			t.Fatalf("peer %d queued %d messages answering a Connect, want 1", to, len(s.nw.queue))
		}
		e := s.nw.queue[0]
		s.nw.AwaitQuiet(func(int, *Message) {})
		if m := e.m; e.to != asker || m.Kind != msgConnectOK || m.From != to || m.Map == nil {
			t.Fatalf("peer %d answered a Connect with %+v to %d", to, m, e.to)
		}
		return e.m
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
