package livenet

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestUDPSessionShaped runs the socket path under injected WAN weather:
// every node's egress carries loss and latency from a fixed shape seed.
// The bar is liveness plus accounting — the calibrated continuity gates
// live in examples/multiproc's shaped manifest, where periods are long
// enough to absorb CI noise.
func TestUDPSessionShaped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 6
	cfg.Period = 40 * time.Millisecond
	cfg.Seed = 31
	periods := 40

	shape := "loss=5%,latency=5ms,jitter=2ms"
	src, err := NewNode(cfg, NodeConfig{ID: 0, Listen: "127.0.0.1:0", Source: true, Shape: shape, ShapeSeed: 9})
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	rpAddr := src.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	var mu sync.Mutex
	out := make(map[int]Stats)
	run := func(id int, node *Node) {
		defer wg.Done()
		st, err := node.Run(ctx, periods)
		if err != nil {
			return
		}
		mu.Lock()
		out[id] = st
		mu.Unlock()
	}
	wg.Add(1)
	go run(0, src)
	for i := 1; i <= cfg.Peers; i++ {
		node, err := NewNode(cfg, NodeConfig{ID: i, Listen: "127.0.0.1:0", Bootstrap: rpAddr, Shape: shape, ShapeSeed: 9})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		wg.Add(1)
		go run(i, node)
	}
	wg.Wait()

	if len(out) != cfg.Peers+1 {
		t.Fatalf("%d of %d nodes reported", len(out), cfg.Peers+1)
	}
	var delivered, shapeDropped, shapeDelayed int64
	cont := 0.0
	for id, st := range out {
		shapeDropped += st.ShapeDropped
		shapeDelayed += st.ShapeDelayed
		if id == 0 {
			continue
		}
		delivered += st.Delivered
		cont += st.Continuity
	}
	cont /= float64(cfg.Peers)
	if delivered == 0 {
		t.Fatal("no segments crossed the shaped sockets")
	}
	// 5% loss over thousands of datagrams: the shaper must have both
	// consumed drops and queued delays, and the counters must surface
	// them through Stats.
	if shapeDropped == 0 {
		t.Fatal("shaper counted no drops at 5% loss")
	}
	if shapeDelayed == 0 {
		t.Fatal("shaper counted no delayed datagrams with latency set")
	}
	if cont < 0.2 {
		t.Fatalf("mean continuity %.3f under shaping — the session did not survive the weather", cont)
	}
}

// TestShapedJoinersLinkOnFirstConnect: a shaped joiner's Connect waits in
// its delay queue, and the node's wait ends at the Connect's due time, not
// at the bootstrap retry 100 ms on, so on a delayed, lossless network
// every joiner links on its first Connect.
func TestShapedJoinersLinkOnFirstConnect(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 4
	cfg.Period = 40 * time.Millisecond
	cfg.Seed = 31
	const periods, shape = 5, "latency=5ms"
	src, err := NewNode(cfg, NodeConfig{ID: 0, Listen: "127.0.0.1:0", Source: true, Shape: shape, ShapeSeed: 9})
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	var mu sync.Mutex
	joined := make(map[int]string)
	run := func(id int, node *Node) {
		defer wg.Done()
		if _, err := node.Run(ctx, periods); err != nil {
			t.Errorf("node %d: %v", id, err)
		}
	}
	wg.Add(1)
	go run(0, src)
	for id := 1; id <= cfg.Peers; id++ {
		logf := func(format string, args ...any) {
			if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "joined:") {
				mu.Lock()
				joined[id] = line
				mu.Unlock()
			}
		}
		node, err := NewNode(cfg, NodeConfig{ID: id, Listen: "127.0.0.1:0", Bootstrap: src.Addr(),
			Shape: shape, ShapeSeed: 9, Logf: logf})
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		wg.Add(1)
		go run(id, node)
	}
	wg.Wait()
	for id := 1; id <= cfg.Peers; id++ {
		if line := joined[id]; !strings.HasSuffix(line, "on Connect 1") {
			t.Errorf("joiner %d logged %q, want it linked on its first Connect", id, line)
		}
	}
}

// TestNewNodeRejectsBadShape pins the construction-time validation: a
// malformed shape string must fail loudly, not run a clean network.
func TestNewNodeRejectsBadShape(t *testing.T) {
	cfg := DefaultConfig()
	for _, nc := range []NodeConfig{
		{ID: 0, Listen: "127.0.0.1:0", Source: true, Shape: "loss=200%"},
		{ID: ringSpace, Listen: "127.0.0.1:0", Bootstrap: "127.0.0.1:1"}, // no position on the rescue ring
	} {
		if n, err := NewNode(cfg, nc); err == nil {
			n.Close()
			t.Errorf("NewNode accepted %+v", nc)
		}
	}
}
