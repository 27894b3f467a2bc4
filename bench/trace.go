package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps spans in memory and writes them out when the run ends. All
// timestamps are nanoseconds since the tracer was created. A nil tracer
// records nothing, so workloads call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, to be passed to end and used
// as the Parent of its children.
func (t *tracer) begin(name string, parent, id int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, Parent: parent, ID: id})
	return len(t.spans) - 1
}

func (t *tracer) end(idx int) {
	if t == nil || idx < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[idx].EndNs = now
	t.mu.Unlock()
}

// selfMs sums the self time of every span with the given name, in ms.
func (t *tracer) selfMs(name string) float64 {
	if t == nil {
		return 0
	}
	self := selfTimes(t.spans)
	var ns int64
	for i, s := range t.spans {
		if s.Name == name {
			ns += self[i]
		}
	}
	return float64(ns) / 1e6
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// phaseRecorder turns core.Config.PhaseProbe's boundary calls into child
// spans of the current round span. The benchmark owns the clock; the core
// only reports names. It records only while a round is open, so warm-up
// rounds leave no spans.
type phaseRecorder struct {
	tr    *tracer
	round int // index of the open round span, -1 when none
	id    int
	cur   int // index of the open phase span, -1 when none
}

func newPhaseRecorder(tr *tracer) *phaseRecorder {
	return &phaseRecorder{tr: tr, round: -1, cur: -1}
}

func (p *phaseRecorder) openRound(id int) {
	p.id = id
	p.round = p.tr.begin("round", -1, id)
}

func (p *phaseRecorder) closeRound() {
	p.tr.end(p.round)
	p.round = -1
}

// probe is the PhaseProbe hook: phase "" marks the end of the round.
func (p *phaseRecorder) probe(phase string) {
	if p.round < 0 {
		return
	}
	if p.cur >= 0 {
		p.tr.end(p.cur)
		p.cur = -1
	}
	if phase != "" {
		p.cur = p.tr.begin("core."+phase, p.round, p.id)
	}
}
