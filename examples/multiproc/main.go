// Multiproc: multi-process live sessions over real UDP sockets — the
// paper's PlanetLab validation shape on one machine. The driver forks
// one livenode process per peer on loopback (the source doubling as
// rendezvous point), scripts churn, and asserts that the audience's
// recovered tail plays continuously: the same scenarios the in-process
// livenet demo runs over its message queue, now with process boundaries,
// wire-encoded datagrams and gossip-routed membership.
//
// A run is one manifest, a testground-style composition — named node
// groups with per-group traffic shaping, kill/join scripts and
// continuity floors (see livenet.Manifest and manifests/*.json). The
// default is the classic kill scenario: 8 peers, 3 of them failing
// abruptly at period 30, the survivors' recovered tail held to 0.9.
//
//	go run ./examples/multiproc
//	go run ./examples/multiproc -manifest examples/multiproc/manifests/shaped.json
//
// Exit status is non-zero when a peer crashes or a group's mean
// recovered tail falls below its floor; per-peer logs land in -logdir
// either way, and a failure prints the seeds that replay it exactly.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"continustreaming/internal/livenet"
)

// nodeStats is livenode's JSON stats line — the exact shape it encodes,
// so the tail metric below is livenet's own TailContinuity, the same
// definition the in-process tests gate on.
type nodeStats struct {
	ID int
	livenet.Stats
}

// proc is one forked livenode: its command, its log sink, and the
// LISTEN/stats lines scraped off its stdout.
type proc struct {
	id     int
	group  string
	doomed bool
	cmd    *exec.Cmd
	listen chan string
	stats  *nodeStats
	err    error
}

// launcher forks livenode processes and scrapes their stdout.
type launcher struct {
	bin    string
	logdir string
	wg     sync.WaitGroup
}

func (l *launcher) start(id int, group string, doomed bool, args ...string) *proc {
	p := &proc{id: id, group: group, doomed: doomed, listen: make(chan string, 1)}
	p.cmd = exec.Command(l.bin, append([]string{"-id", fmt.Sprint(id)}, args...)...)
	logf, err := os.Create(filepath.Join(l.logdir, fmt.Sprintf("peer-%02d.log", id)))
	if err != nil {
		fatalf("log file: %v", err)
	}
	p.cmd.Stderr = logf
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		fatalf("stdout pipe: %v", err)
	}
	if err := p.cmd.Start(); err != nil {
		fatalf("starting peer %d: %v", id, err)
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer logf.Close()
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if addr, ok := strings.CutPrefix(line, "LISTEN="); ok {
				p.listen <- addr
			} else if strings.HasPrefix(line, "{") {
				var st nodeStats
				if err := json.Unmarshal([]byte(line), &st); err == nil {
					p.stats = &st
				}
			}
		}
		p.err = p.cmd.Wait()
	}()
	return p
}

// await blocks until the proc reports its bound address.
func (p *proc) await() string {
	select {
	case addr := <-p.listen:
		return addr
	case <-time.After(10 * time.Second):
		fatalf("peer %d never reported its address", p.id)
		return ""
	}
}

// buildLivenode resolves the livenode binary, building it when none was
// supplied. The returned cleanup removes a built binary.
func buildLivenode(binPath string) (string, func()) {
	if binPath != "" {
		return binPath, func() {}
	}
	bin := filepath.Join(os.TempDir(), fmt.Sprintf("livenode-%d", os.Getpid()))
	build := exec.Command("go", "build", "-o", bin, "./cmd/livenode")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		fatalf("building livenode: %v", err)
	}
	return bin, func() { os.Remove(bin) }
}

func main() {
	var (
		manifest = flag.String("manifest", "examples/multiproc/manifests/kill.json", "scenario manifest JSON")
		tail     = flag.Int("tail", 15, "periods of recovered tail to average where a group names none")
		binPath  = flag.String("livenode", "", "prebuilt livenode binary (empty = go build it)")
		logdir   = flag.String("logdir", "multiproc-logs", "per-peer log directory")
	)
	flag.Parse()
	if err := os.MkdirAll(*logdir, 0o755); err != nil {
		fatalf("logdir: %v", err)
	}
	bin, cleanup := buildLivenode(*binPath)
	defer cleanup()
	runManifest(&launcher{bin: bin, logdir: *logdir}, *manifest, *tail)
}

// runManifest launches a manifest composition and asserts every group's
// continuity floor.
func runManifest(l *launcher, path string, defTail int) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("manifest: %v", err)
	}
	m, err := livenet.ParseManifest(data)
	if err != nil {
		fatalf("%v", err)
	}
	dur, err := m.PeriodDuration()
	if err != nil {
		fatalf("%v", err)
	}
	nodes := m.Nodes()
	fmt.Printf("manifest %s: %d nodes in %d groups, %d periods of %v (seed=%d shapeseed=%d)\n",
		filepath.Base(path), len(nodes), len(m.Groups), m.Periods, dur, m.Seed, m.ShapeSeed)

	base := []string{
		"-peers", fmt.Sprint(m.Receivers()),
		"-periods", fmt.Sprint(m.Periods),
		"-period", dur.String(),
		"-seed", fmt.Sprint(m.Seed),
	}
	// An unset manifest field leaves livenode's own default in force.
	if m.Retry > 0 {
		base = append(base, "-retry", fmt.Sprint(m.Retry))
	}
	if m.PushHops != nil {
		base = append(base, "-pushhops", fmt.Sprint(*m.PushHops))
	}
	nodeArgs := func(n livenet.ManifestNode) []string {
		args := append([]string{}, base...)
		if n.Shape != "" {
			args = append(args, "-shape", n.Shape, "-shapeseed", fmt.Sprint(m.ShapeSeed))
		}
		if n.ExitAt > 0 {
			args = append(args, "-exitat", fmt.Sprint(n.ExitAt))
		}
		return args
	}

	src := l.start(0, nodes[0].Group, false,
		append(nodeArgs(nodes[0]), "-source", "-listen", "127.0.0.1:0")...)
	rp := src.await()
	fmt.Printf("source/RP (group %q) listening on %s\n", nodes[0].Group, rp)

	procs := []*proc{src}
	var joiners []livenet.ManifestNode
	var stallWG sync.WaitGroup
	for _, n := range nodes[1:] {
		if n.JoinAt > 0 {
			joiners = append(joiners, n)
			continue
		}
		p := l.start(n.ID, n.Group, n.ExitAt > 0,
			append(nodeArgs(n), "-bootstrap", rp, "-listen", "127.0.0.1:0")...)
		procs = append(procs, p)
		if n.StallAt > 0 {
			// Scripted clock stall: freeze the process kernel-side for
			// StallFor periods, then resume it — its period clock misses those
			// periods, the drift the continuous re-sync re-anchors.
			stallWG.Add(1)
			go func(p *proc, at, dur time.Duration) {
				defer stallWG.Done()
				time.Sleep(at)
				fmt.Printf("stalling peer %d (group %q) for %v\n", p.id, p.group, dur)
				if err := p.cmd.Process.Signal(sigStop); err != nil {
					return // already exited; nothing to stall
				}
				time.Sleep(dur)
				p.cmd.Process.Signal(sigCont)
			}(p, time.Duration(n.StallAt)*dur, time.Duration(n.StallFor)*dur)
		}
	}
	// Late joiners enter through the rendezvous path mid-session; their
	// bootstrap handshake syncs them to the in-flight clock. Launch
	// order is by join period, timed off the driver's own clock (the
	// script needs only rough alignment — joining a period early or
	// late is still a mid-session join).
	sort.SliceStable(joiners, func(i, j int) bool { return joiners[i].JoinAt < joiners[j].JoinAt })
	t0 := time.Now()
	for _, n := range joiners {
		if wait := time.Duration(n.JoinAt)*dur - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		fmt.Printf("joining peer %d (group %q) at ~period %d\n", n.ID, n.Group, n.JoinAt)
		procs = append(procs, l.start(n.ID, n.Group, n.ExitAt > 0,
			append(nodeArgs(n), "-bootstrap", rp, "-listen", "127.0.0.1:0")...))
	}
	stallWG.Wait()
	l.wg.Wait()

	// Per-group verdicts: every process must exit the way its script
	// says, and each group with a floor must clear it.
	failures := 0
	fmt.Printf("%-12s %-6s %-8s %-9s %-10s %-8s %s\n", "group", "peer", "fate", "periods", "continuity", "tail", "detail")
	groupTails := make(map[string][]float64)
	for _, p := range procs {
		fate := "ran"
		switch {
		case p.doomed && p.err == nil && p.stats != nil:
			fmt.Printf("%-12s %-6d %-8s %-9s %-10s %-8s dropped off on script\n", p.group, p.id, "killed", "-", "-", "-")
			continue
		case p.err != nil || (p.stats == nil && p.id != 0):
			failures++
			fmt.Printf("%-12s %-6d %-8s %-9s %-10s %-8s CRASHED: %v\n", p.group, p.id, "crash", "-", "-", "-", p.err)
			continue
		case p.id == 0:
			fmt.Printf("%-12s %-6d %-8s %-9s %-10s %-8s served the stream\n", p.group, p.id, "source", "-", "-", "-")
			continue
		}
		t := p.stats.TailContinuity(tailForGroup(m, p.group, defTail))
		groupTails[p.group] = append(groupTails[p.group], t)
		fmt.Printf("%-12s %-6d %-8s %-9d %-10.3f %-8.3f push=%d rescued=%d resyncs=%d behind=%d shapeDrop=%d refused=%d\n",
			p.group, p.id, fate, p.stats.Periods, p.stats.Continuity, t,
			p.stats.PushDelivered, p.stats.Rescued, p.stats.Resyncs, p.stats.BehindPeriods,
			p.stats.ShapeDropped, p.stats.TransportDropped)
	}
	for _, g := range m.Groups {
		if g.Source || g.MinTail == 0 {
			continue
		}
		tails := groupTails[g.Name]
		if len(tails) == 0 {
			failures++
			fmt.Printf("group %q: no members reported stats (floor %.2f)\n", g.Name, g.MinTail)
			continue
		}
		mean := 0.0
		for _, t := range tails {
			mean += t
		}
		mean /= float64(len(tails))
		verdict := "ok"
		if mean < g.MinTail {
			verdict = "BELOW FLOOR"
			failures++
		}
		fmt.Printf("group %q: mean tail %.3f over %d members (floor %.2f, last %d periods) %s\n",
			g.Name, mean, len(tails), g.MinTail, g.TailFor(defTail), verdict)
	}
	if failures > 0 {
		// The shape seed is the replay handle: rerunning the manifest
		// with the same seeds replays the exact drop/delay sequence.
		fmt.Printf("FAIL: %d failures (replay: seed=%d shapeseed=%d)\n", failures, m.Seed, m.ShapeSeed)
		os.Exit(1)
	}
	fmt.Println("PASS")
}

// tailForGroup resolves a group's tail window by name.
func tailForGroup(m livenet.Manifest, name string, def int) int {
	for _, g := range m.Groups {
		if g.Name == name {
			return g.TailFor(def)
		}
	}
	return def
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "multiproc: "+format+"\n", args...)
	os.Exit(1)
}
