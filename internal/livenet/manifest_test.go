package livenet

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

const manifestExample = `{
  "periods": 60,
  "period": "50ms",
  "seed": 1,
  "shapeSeed": 7,
  "retry": 3,
  "pushHops": 0,
  "groups": [
    {"name": "source", "count": 1, "source": true},
    {"name": "viewers", "count": 6, "shape": "loss=2%,latency=50ms,jitter=20ms", "minTail": 0.9, "tail": 15},
    {"name": "churners", "count": 2, "exitAt": 30},
    {"name": "latecomers", "count": 1, "joinAt": 20, "minTail": 0.8}
  ]
}`

func TestParseManifest(t *testing.T) {
	m, err := ParseManifest([]byte(manifestExample))
	if err != nil {
		t.Fatal(err)
	}
	if m.Periods != 60 || m.Seed != 1 || m.ShapeSeed != 7 || m.Retry != 3 {
		t.Fatalf("header fields: %+v", m)
	}
	if m.PushHops == nil || *m.PushHops != 0 {
		t.Fatalf("pushHops = %v, want explicit 0", m.PushHops)
	}
	if d, err := m.PeriodDuration(); err != nil || d != 50*time.Millisecond {
		t.Fatalf("period = %v, %v", d, err)
	}
	if m.Receivers() != 9 {
		t.Fatalf("receivers = %d, want 9", m.Receivers())
	}
	nodes := m.Nodes()
	if len(nodes) != 10 {
		t.Fatalf("expanded %d nodes, want 10", len(nodes))
	}
	if !nodes[0].Source || nodes[0].ID != 0 {
		t.Fatalf("first node is not the source: %+v", nodes[0])
	}
	// Receiver IDs are sequential in group order; scripts land on the
	// right nodes.
	for i, n := range nodes[1:] {
		if n.ID != i+1 {
			t.Fatalf("node %d got ID %d", i+1, n.ID)
		}
	}
	if nodes[7].Group != "churners" || nodes[7].ExitAt != 30 {
		t.Fatalf("churner placement: %+v", nodes[7])
	}
	if nodes[9].Group != "latecomers" || nodes[9].JoinAt != 20 {
		t.Fatalf("latecomer placement: %+v", nodes[9])
	}
	if got := m.Groups[1].TailFor(10); got != 15 {
		t.Fatalf("viewers TailFor = %d, want its own 15", got)
	}
	if got := m.Groups[2].TailFor(10); got != 10 {
		t.Fatalf("churners TailFor = %d, want the default 10", got)
	}
}

func TestParseManifestDefaultPeriod(t *testing.T) {
	m, err := ParseManifest([]byte(`{"periods": 10, "groups": [
		{"name": "src", "count": 1, "source": true},
		{"name": "v", "count": 2}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.PeriodDuration()
	if err != nil || d != DefaultConfig().Period {
		t.Fatalf("default period = %v, %v", d, err)
	}
	if m.PushHops != nil {
		t.Fatalf("absent pushHops decoded as %v, want nil (no override)", *m.PushHops)
	}
}

// TestParseManifestLargestAudience: the bound is inclusive — a manifest
// filling the rescue ring parses and expands to one node per position.
func TestParseManifestLargestAudience(t *testing.T) {
	m, err := ParseManifest([]byte(`{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 16000}, {"name": "w", "count": 383}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Receivers() != maxReceivers || len(m.Nodes()) != ringSpace {
		t.Fatalf("%d receivers, %d nodes; want %d and %d", m.Receivers(), len(m.Nodes()), maxReceivers, ringSpace)
	}
}

func TestParseManifestRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"no periods", `{"groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1}]}`, "periods"},
		{"bad period", `{"periods": 10, "period": "fast", "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1}]}`, "period"},
		{"no source", `{"periods": 10, "groups": [{"name": "v", "count": 2}]}`, "source group"},
		{"two sources", `{"periods": 10, "groups": [{"name": "a", "count": 1, "source": true}, {"name": "b", "count": 1, "source": true}, {"name": "v", "count": 1}]}`, "source group"},
		{"fat source", `{"periods": 10, "groups": [{"name": "s", "count": 2, "source": true}, {"name": "v", "count": 1}]}`, "count 1"},
		{"scripted source", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true, "exitAt": 5}, {"name": "v", "count": 1}]}`, "scripted"},
		{"source floor", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true, "minTail": 0.5}, {"name": "v", "count": 1}]}`, "floor"},
		{"no receivers", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}]}`, "no receivers"},
		{"nameless group", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"count": 1}]}`, "without a name"},
		{"dup group", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1}, {"name": "v", "count": 1}]}`, "duplicate"},
		{"full ring", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 16384}]}`, "rescue ring"},
		{"full ring in two groups", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 16383}, {"name": "w", "count": 1}]}`, "rescue ring"},
		{"overflowing sum", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 9223372036854775807}, {"name": "w", "count": 9223372036854775807}, {"name": "x", "count": 2}]}`, "rescue ring"},
		{"zero count", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 0}]}`, "count"},
		{"bad shape", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1, "shape": "speed=11"}]}`, "shape"},
		{"bad minTail", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1, "minTail": 1.5}]}`, "minTail"},
		{"late exit", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1, "exitAt": 10}]}`, "after the session"},
		{"late join", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1, "joinAt": 12}]}`, "after the session"},
		{"exit before join", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1, "joinAt": 5, "exitAt": 4}]}`, "before joining"},
		{"negative retry", `{"periods": 10, "retry": -1, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1}]}`, "retry"},
		{"negative pushHops", `{"periods": 10, "pushHops": -1, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1}]}`, "pushHops"},
		{"unknown field", `{"periods": 10, "minTial": 0.9, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1}]}`, "unknown field"},
		{"unknown group field", `{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1, "minTial": 0.9}]}`, "unknown field"},
	}
	for _, tc := range cases {
		_, err := ParseManifest([]byte(tc.in))
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// FuzzParseManifest drives the manifest decoder with arbitrary bytes: it
// must never panic, and a manifest it accepts must resolve — a positive
// period, at least one receiver, and an expansion with the source at ID 0
// and the receivers numbered 1..Receivers() in order. Every accepted
// manifest is expanded: the parser bounds the audience at maxReceivers.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte(manifestExample))
	hops := 1
	written, err := json.Marshal(Manifest{Periods: 40, Period: "200ms", Seed: 3, ShapeSeed: 9, Retry: 2, PushHops: &hops, Groups: []ManifestGroup{
		{Name: "src", Count: 1, Source: true},
		{Name: "stalled", Count: 3, Shape: "rate=1mbit", StallAt: 10, StallFor: 3, MinTail: 0.5, Tail: 8},
		{Name: "late", Count: 2, JoinAt: 5, ExitAt: 30},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Add([]byte(`{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 1, "minTial": 0.9}]}`))
	f.Add([]byte(`{"periods": 10, "groups": [{"name": "s", "count": 1, "source": true}, {"name": "v", "count": 4000000000}]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		if d, err := m.PeriodDuration(); err != nil || d <= 0 {
			t.Fatalf("accepted manifest resolves period %v, %v", d, err)
		}
		recv := m.Receivers()
		if recv <= 0 || recv > maxReceivers {
			t.Fatalf("accepted manifest has %d receivers", recv)
		}
		nodes := m.Nodes()
		if len(nodes) != recv+1 {
			t.Fatalf("expanded %d nodes for %d receivers and a source", len(nodes), recv)
		}
		next := 1
		for _, n := range nodes {
			switch {
			case n.Source && n.ID != 0:
				t.Fatalf("source placed at ID %d", n.ID)
			case !n.Source && n.ID != next:
				t.Fatalf("receiver placed at ID %d, want %d", n.ID, next)
			case !n.Source:
				next++
			}
		}
	})
}
