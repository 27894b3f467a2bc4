package livenet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"continustreaming/internal/sim"
)

// startUDPSession spawns a source plus n receiver nodes, every one on
// its own UDP socket on loopback — the multi-process topology inside
// one test process. It returns the per-node cancel funcs (abrupt kills)
// and a collector that waits for all nodes and hands back the stats of
// the receivers that ran to completion.
func startUDPSession(t *testing.T, cfg Config, n, periods int) (cancels []context.CancelFunc, wait func() map[int]Stats) {
	t.Helper()
	src, err := NewNode(cfg, NodeConfig{ID: 0, Listen: "127.0.0.1:0", Source: true})
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	rpAddr := src.Addr()
	ctx, cancelAll := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancelAll)

	var wg sync.WaitGroup
	var mu sync.Mutex
	out := make(map[int]Stats)
	run := func(id int, node *Node, nctx context.Context) {
		defer wg.Done()
		st, err := node.Run(nctx, periods)
		if err != nil {
			return // handshake failed or cancelled before the loop
		}
		if id != 0 {
			mu.Lock()
			out[id] = st
			mu.Unlock()
		}
	}
	wg.Add(1)
	srcCtx, srcCancel := context.WithCancel(ctx)
	cancels = append(cancels, srcCancel)
	go run(0, src, srcCtx)
	for i := 1; i <= n; i++ {
		node, err := NewNode(cfg, NodeConfig{ID: i, Listen: "127.0.0.1:0", Bootstrap: rpAddr})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nctx, ncancel := context.WithCancel(ctx)
		cancels = append(cancels, ncancel)
		wg.Add(1)
		go run(i, node, nctx)
	}
	return cancels, func() map[int]Stats {
		wg.Wait()
		return out
	}
}

// TestUDPSessionDeliversAndPlays runs a whole session over real UDP
// sockets on loopback: bootstrap handshake against the RP, membership
// from the address book instead of a registry, routed ring rescue — the
// socket path end to end, minus the process boundary.
func TestUDPSessionDeliversAndPlays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 8
	cfg.Period = 20 * time.Millisecond
	cfg.Seed = 17
	_, wait := startUDPSession(t, cfg, cfg.Peers, 40)
	stats := wait()
	if len(stats) != cfg.Peers {
		t.Fatalf("%d of %d receivers reported", len(stats), cfg.Peers)
	}
	var delivered, pushed int64
	cont := 0.0
	for _, st := range stats {
		delivered += st.Delivered
		pushed += st.PushDelivered
		cont += st.Continuity
	}
	cont /= float64(len(stats))
	if delivered == 0 {
		t.Fatal("no segments crossed the UDP sockets")
	}
	if pushed == 0 {
		t.Fatal("no push deliveries over UDP — the engine is not running on the socket path")
	}
	// Liveness bar, not the calibrated continuity: 20 ms periods over
	// loopback on a loaded CI runner are noisy.
	if cont < 0.2 {
		t.Fatalf("mean continuity %.3f over UDP", cont)
	}
}

// TestUDPSessionKillRecovery is the acceptance scenario at test scale:
// kill a third of the receivers mid-session (context cancel: socket
// closed, no goodbye) and require the survivors' recovered tail to
// play continuously again.
func TestUDPSessionKillRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 9
	cfg.Period = 20 * time.Millisecond
	cfg.Seed = 23
	periods := 70
	cancels, wait := startUDPSession(t, cfg, cfg.Peers, periods)
	time.Sleep(time.Duration(periods/2) * cfg.Period)
	for _, i := range []int{1, 2, 3} { // a third of the audience
		cancels[i]()
	}
	stats := wait()
	killed := map[int]bool{1: true, 2: true, 3: true}
	tail, survivors := 0.0, 0
	for id, st := range stats {
		if killed[id] {
			continue
		}
		survivors++
		tail += st.TailContinuity(15)
		if st.EndDeadLinks > 0 {
			t.Errorf("survivor %d still held %d links to dead peers", id, st.EndDeadLinks)
		}
	}
	if survivors != cfg.Peers-3 {
		t.Fatalf("%d survivors reported, want %d", survivors, cfg.Peers-3)
	}
	tail /= float64(survivors)
	// Locally the recovered tail sits near 1.0; the bar leaves room for
	// CI wall-clock noise. examples/multiproc asserts the paper-level
	// 0.9 with real process kills.
	if tail < 0.5 {
		t.Fatalf("survivor tail continuity %.3f after killing a third over UDP", tail)
	}
}

// TestNodeStartsOnlyIOGoroutines: a socket node's session runs on the
// goroutine that calls Run, and so do the reads of its socket and the
// release of what its shaper delays. A running source (shaped) and two
// running receivers add no goroutine beyond each node's Run — the socket
// twin of TestInProcessSessionStartsNoGoroutines.
func TestNodeStartsOnlyIOGoroutines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 2
	cfg.Period = 20 * time.Millisecond
	const periods = 25
	before := runtime.NumGoroutine()
	src, err := NewNode(cfg, NodeConfig{ID: 0, Listen: "127.0.0.1:0", Source: true, Shape: "latency=2ms", ShapeSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*Node{src}
	for id := 1; id <= cfg.Peers; id++ {
		node, err := NewNode(cfg, NodeConfig{ID: id, Listen: "127.0.0.1:0", Bootstrap: src.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	const allowed = 3 // Run, one per node
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	stats := make([]Stats, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = node.Run(ctx, periods)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	peak := 0
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		case <-time.After(cfg.Period / 4):
			// The waiter above is the test's own; the sampler is the
			// test's goroutine, counted in before.
			peak = max(peak, runtime.NumGoroutine()-before-1)
		}
	}
	if peak > allowed {
		t.Fatalf("%d goroutines beyond the test's while three nodes ran, want at most %d", peak, allowed)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if i > 0 && stats[i].Delivered == 0 {
			t.Fatalf("node %d ran %d periods and received nothing", i, stats[i].Periods)
		}
	}
}

// TestNodeRunHonoursContextWhileIdle: a node whose socket is silent and
// whose next deadline is an hour away is blocked in its read, and a cancel
// of its context, or a Close from another goroutine, ends that read: Run
// returns within 100 ms.
func TestNodeRunHonoursContextWhileIdle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = time.Hour
	for _, c := range []struct {
		name string
		stop func(cancel context.CancelFunc, n *Node)
	}{
		{"cancel", func(cancel context.CancelFunc, _ *Node) { cancel() }},
		{"Close", func(_ context.CancelFunc, n *Node) { n.Close() }},
	} {
		n, err := NewNode(cfg, NodeConfig{ID: 0, Listen: "127.0.0.1:0", Source: true})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := n.Run(ctx, 10)
			done <- err
		}()
		time.Sleep(50 * time.Millisecond) // Run is waiting on its silent socket
		stopped := time.Now()
		c.stop(cancel, n)
		select {
		case err := <-done:
			if took := time.Since(stopped); took > 100*time.Millisecond {
				t.Errorf("%s: Run returned %v after it, want within 100ms", c.name, took)
			}
			if err != nil {
				t.Errorf("%s: the running source returned %v", c.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Run still waiting 5s after it", c.name)
		}
		cancel()
	}
}

// TestTickHandsOverQueuedDatagrams: datagrams already at a node's socket
// when its tick fires are handed over before that tick's plan, so the
// tick's re-sync reads their period stamps. Two peers Connect to a source
// with frames stamped period 5 before it runs; at a 1 ns period every
// deadline has passed when the node reads, and a read past its deadline
// takes no datagram, so only the tick's drain can hand them over. Handed
// over by then, they link two neighbours that vouch for period 5 and the
// first tick re-syncs from period 0; handed over any later, inside the
// plan, they miss the period's membership view, their links are dropped
// and no tick re-syncs.
func TestTickHandsOverQueuedDatagrams(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = time.Nanosecond
	var logged []string
	n, err := NewNode(cfg, NodeConfig{ID: 0, Listen: "127.0.0.1:0", Source: true,
		Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }})
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 2; id++ {
		from := openUDP(t, id)
		if err := from.Learn(0, n.Addr()); err != nil {
			t.Fatal(err)
		}
		if !from.Send(0, &Message{From: id, Kind: msgConnect, Period: 5}) {
			t.Fatalf("peer %d: send failed", id)
		}
		from.flush()
	}
	if _, err := n.Run(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if len(logged) == 0 || logged[0] != "resync: period 0 -> 5" {
		t.Fatalf("log %q, want it to open with the first tick's re-sync, period 0 -> 5", logged)
	}
}

// TestNodeRunFlushesItsLastServe: what a node's last wake-up sends — the
// grants of its final serve — leaves before Run returns. A socket links
// to a source and then asks it every 2 ms for the whole session for the
// segment at the playback position one period past the latest stamp it
// heard, which the source holds; every grant the source counts must
// arrive, the final serve's included.
func TestNodeRunFlushesItsLastServe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 20 * time.Millisecond
	src, err := NewNode(cfg, NodeConfig{ID: 0, Listen: "127.0.0.1:0", Source: true})
	if err != nil {
		t.Fatal(err)
	}
	const asker = 5
	tr := openUDP(t, asker)
	if err := tr.Learn(0, src.Addr()); err != nil {
		t.Fatal(err)
	}
	done := make(chan Stats, 1)
	go func() {
		st, err := src.Run(context.Background(), 10)
		if err != nil {
			t.Error(err)
		}
		done <- st
	}()
	granted, heard := int64(0), 0
	count := func(_ int, m *Message) {
		heard = max(heard, m.Period)
		if m.Kind == msgData && m.Hop == 0 && !m.Rescue {
			granted++ // not a push
		}
	}
	tr.Send(0, &Message{From: asker, Kind: msgConnect})
	var st Stats
	for running := true; running; {
		tr.Send(0, &Message{From: asker, Kind: msgRequest, Seg: cfg.posFor(heard + 1), Deadline: sim.Time(time.Hour / time.Millisecond)})
		tr.flush()
		select {
		case st = <-done:
			running = false
		case <-time.After(2 * time.Millisecond):
		}
		tr.AwaitQuiet(count)
	}
	for tr.receive(time.Now().Add(100 * time.Millisecond)) {
		tr.handOver(count)
	}
	if st.GrantsSent == 0 || granted != st.GrantsSent {
		t.Fatalf("the source counted %d grants and %d arrived, want all of them and more than none", st.GrantsSent, granted)
	}
}
