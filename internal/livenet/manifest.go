package livenet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Manifest is the composition of a multi-process scenario: named node
// groups (one source, any number of receiver groups), per-group WAN
// shaping profiles and kill/join scripts, the session length, and the
// seeds. It is the testground-style input of the shaped-scenario
// harness: the multiproc driver launches one livenode process per node
// the manifest describes and asserts each group's continuity floor, so
// a whole CI scenario is one reviewable JSON file.
//
//	{
//	  "periods": 60,
//	  "period": "50ms",
//	  "seed": 1,
//	  "shapeSeed": 7,
//	  "groups": [
//	    {"name": "source", "count": 1, "source": true},
//	    {"name": "viewers", "count": 6, "shape": "loss=2%,latency=50ms,jitter=20ms", "minTail": 0.9}
//	  ]
//	}
type Manifest struct {
	// Periods is the absolute session length; Period the scheduling
	// period as a Go duration string ("" = the livenet default).
	Periods int    `json:"periods"`
	Period  string `json:"period,omitempty"`
	// Seed drives protocol policy randomness, ShapeSeed the traffic
	// shaper's per-link streams. Keeping them separate lets a scenario
	// vary the WAN weather while the protocol's decisions hold still
	// (and vice versa); the driver prints ShapeSeed on failure so a
	// flake replays exactly.
	Seed      uint64 `json:"seed,omitempty"`
	ShapeSeed uint64 `json:"shapeSeed,omitempty"`
	// Retry overrides Config.RetryPeriods (0 = livenode's default);
	// PushHops, when non-nil, overrides the push depth (explicit 0 =
	// pull-only, the WAN acceptance scenario's configuration).
	Retry    int  `json:"retry,omitempty"`
	PushHops *int `json:"pushHops,omitempty"`
	// Groups composes the session. Exactly one group must be the
	// source group (count 1, ID 0); receiver groups follow in order,
	// IDs assigned sequentially.
	Groups []ManifestGroup `json:"groups"`
}

// ManifestGroup is one named set of identically-configured nodes.
type ManifestGroup struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	// Source marks the stream emitter's group (count must be 1).
	Source bool `json:"source,omitempty"`
	// Shape is this group's egress ShapeProfile flag string (see
	// ParseShapeProfile); empty sends over a clean network.
	Shape string `json:"shape,omitempty"`
	// ExitAt scripts an abrupt mid-session failure of every node in the
	// group at that period; JoinAt delays the group's launch until that
	// period, exercising the rendezvous join path mid-stream.
	ExitAt int `json:"exitAt,omitempty"`
	JoinAt int `json:"joinAt,omitempty"`
	// StallAt freezes the group's processes (SIGSTOP) at that period for
	// StallFor periods (default 2), then resumes them — the scripted
	// clock stall the continuous re-sync exists for: a resumed node's
	// period counter is StallFor periods behind until it re-anchors.
	StallAt  int `json:"stallAt,omitempty"`
	StallFor int `json:"stallFor,omitempty"`
	// MinTail is the group's required mean recovered-tail continuity
	// over the last Tail periods (Tail 0 = the driver default). Zero
	// MinTail asserts nothing — bystander and doomed groups. The floor
	// is what the shaped-smoke CI job gates on.
	MinTail float64 `json:"minTail,omitempty"`
	Tail    int     `json:"tail,omitempty"`
}

// ManifestNode is one expanded node placement: the process the driver
// forks for it, fully resolved.
type ManifestNode struct {
	ID       int
	Group    string
	Source   bool
	Shape    string
	ExitAt   int
	JoinAt   int
	StallAt  int
	StallFor int
}

// ParseManifest decodes and validates a manifest. Unknown fields are
// rejected — a typo'd "minTial" silently asserting nothing is exactly
// the failure mode a CI gate cannot afford.
func ParseManifest(data []byte) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("livenet: manifest: %v", err)
	}
	if err := m.validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// validate enforces the composition rules.
func (m Manifest) validate() error {
	if m.Periods <= 0 {
		return fmt.Errorf("livenet: manifest needs periods > 0 (got %d)", m.Periods)
	}
	if _, err := m.PeriodDuration(); err != nil {
		return err
	}
	if m.Retry < 0 {
		return fmt.Errorf("livenet: manifest retry %d is negative", m.Retry)
	}
	if m.PushHops != nil && *m.PushHops < 0 {
		return fmt.Errorf("livenet: manifest pushHops %d is negative", *m.PushHops)
	}
	sources, receivers := 0, 0
	names := make(map[string]bool, len(m.Groups))
	for _, g := range m.Groups {
		if g.Name == "" {
			return fmt.Errorf("livenet: manifest group without a name")
		}
		if names[g.Name] {
			return fmt.Errorf("livenet: duplicate manifest group %q", g.Name)
		}
		names[g.Name] = true
		if g.Count <= 0 {
			return fmt.Errorf("livenet: group %q count %d (want > 0)", g.Name, g.Count)
		}
		// Compared by the room left, so the sum cannot overflow.
		if !g.Source {
			if g.Count > maxReceivers-receivers {
				return fmt.Errorf("livenet: group %q brings the audience past %d receivers, the rescue ring's capacity", g.Name, maxReceivers)
			}
			receivers += g.Count
		}
		if _, err := ParseShapeProfile(g.Shape); err != nil {
			return fmt.Errorf("livenet: group %q: %v", g.Name, err)
		}
		if g.MinTail < 0 || g.MinTail > 1 {
			return fmt.Errorf("livenet: group %q minTail %v outside [0, 1]", g.Name, g.MinTail)
		}
		if g.Tail < 0 || g.ExitAt < 0 || g.JoinAt < 0 || g.StallAt < 0 || g.StallFor < 0 {
			return fmt.Errorf("livenet: group %q has a negative script field", g.Name)
		}
		if g.StallAt >= m.Periods {
			return fmt.Errorf("livenet: group %q stalls at %d, after the session's %d periods", g.Name, g.StallAt, m.Periods)
		}
		if g.StallFor > 0 && g.StallAt == 0 {
			return fmt.Errorf("livenet: group %q sets stallFor without stallAt", g.Name)
		}
		if g.ExitAt >= m.Periods && g.ExitAt != 0 {
			return fmt.Errorf("livenet: group %q exits at %d, after the session's %d periods", g.Name, g.ExitAt, m.Periods)
		}
		if g.JoinAt >= m.Periods {
			return fmt.Errorf("livenet: group %q joins at %d, after the session's %d periods", g.Name, g.JoinAt, m.Periods)
		}
		if g.ExitAt > 0 && g.JoinAt > 0 && g.ExitAt <= g.JoinAt {
			return fmt.Errorf("livenet: group %q exits at %d before joining at %d", g.Name, g.ExitAt, g.JoinAt)
		}
		if g.Source {
			sources++
			if g.Count != 1 {
				return fmt.Errorf("livenet: source group %q must have count 1 (got %d)", g.Name, g.Count)
			}
			if g.ExitAt != 0 || g.JoinAt != 0 || g.StallAt != 0 {
				return fmt.Errorf("livenet: source group %q cannot be scripted to exit, join late, or stall", g.Name)
			}
			if g.MinTail != 0 {
				return fmt.Errorf("livenet: source group %q cannot assert a continuity floor", g.Name)
			}
		}
	}
	if sources != 1 {
		return fmt.Errorf("livenet: manifest needs exactly one source group (got %d)", sources)
	}
	if receivers == 0 {
		return fmt.Errorf("livenet: manifest has no receivers")
	}
	return nil
}

// PeriodDuration resolves the scheduling period ("" = the DefaultConfig
// period).
func (m Manifest) PeriodDuration() (time.Duration, error) {
	if m.Period == "" {
		return DefaultConfig().Period, nil
	}
	d, err := time.ParseDuration(m.Period)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("livenet: manifest period %q is not a positive duration", m.Period)
	}
	return d, nil
}

// maxReceivers is the largest audience a manifest or an in-process session
// may describe: with the source, one peer per rescue-ring position. Past it
// a peer ID has no position of its own.
const maxReceivers = ringSpace - 1

// Receivers is the audience size: every node outside the source group
// (at most maxReceivers in a parsed manifest).
func (m Manifest) Receivers() int {
	n := 0
	for _, g := range m.Groups {
		if !g.Source {
			n += g.Count
		}
	}
	return n
}

// Nodes expands the groups into per-node placements: the source is
// always ID 0, receiver IDs follow in group order. The expansion is
// deterministic, so every run of a manifest forks the same processes.
func (m Manifest) Nodes() []ManifestNode {
	out := make([]ManifestNode, 0, m.Receivers()+1)
	next := 1
	for _, g := range m.Groups {
		stallFor := g.StallFor
		if g.StallAt > 0 && stallFor == 0 {
			stallFor = 2
		}
		for i := 0; i < g.Count; i++ {
			n := ManifestNode{
				Group: g.Name, Source: g.Source, Shape: g.Shape,
				ExitAt: g.ExitAt, JoinAt: g.JoinAt, StallAt: g.StallAt, StallFor: stallFor,
			}
			if g.Source {
				n.ID = 0
			} else {
				n.ID = next
				next++
			}
			out = append(out, n)
		}
	}
	return out
}

// TailFor resolves a group's tail window against the driver default.
func (g ManifestGroup) TailFor(def int) int {
	if g.Tail > 0 {
		return g.Tail
	}
	return def
}
