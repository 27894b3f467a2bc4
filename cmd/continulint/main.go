// Command continulint machine-checks the repository's determinism and
// shard-ownership contracts — the hand-enforced conventions every
// bit-identical-rounds guarantee rests on and that go vet, staticcheck,
// and -race cannot see (a map-order nondeterminism race-cleanly produces
// different-but-valid runs). It runs four project-specific analyzers
// over the module, test files included:
//
//	maporder      no range over a map in simulated paths
//	wallclock     no wall clock / global math/rand in simulated paths
//	shardcapture  sim.ForShards shard funcs write only shard-owned state
//	wirebounds    wire-decoded lengths are bounds-checked before allocation
//
// Usage:
//
//	go run ./cmd/continulint ./...
//
// A finding is suppressed by a `//continulint:<analyzer> <reason>`
// comment on the flagged line or the line above; the reason is
// mandatory, and a directive that suppresses nothing — its finding gone,
// its analyzer filtered off the package or unknown — is a finding itself.
// Exit status is non-zero when any finding survives. Under
// GitHub Actions each finding is additionally emitted as an ::error
// workflow command so it annotates the checks UI.
//
// The analyzers are built on the in-repo internal/analysis framework (a
// stdlib-only mirror of golang.org/x/tools/go/analysis — the build image
// carries no module dependencies). Stock correctness passes of the real
// multichecker world (nilness, shadow, ...) are covered in CI by the
// separate `go vet` and staticcheck lint steps; this binary carries only
// the contracts unique to this codebase.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"continustreaming/internal/analysis"
	"continustreaming/internal/analysis/maporder"
	"continustreaming/internal/analysis/shardcapture"
	"continustreaming/internal/analysis/wallclock"
	"continustreaming/internal/analysis/wirebounds"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: continulint [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := []*analysis.Analyzer{
		maporder.Analyzer,
		wallclock.Analyzer,
		shardcapture.Analyzer,
		wirebounds.Analyzer,
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "continulint: %v\n", err)
		os.Exit(2)
	}
	findings, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "continulint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Printf("%s\n", f)
		if os.Getenv("GITHUB_ACTIONS") == "true" {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=continulint/%s::%s\n",
				relPath(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, escapeActions(f.Message))
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "continulint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
	fmt.Printf("continulint: %d package(s) clean\n", len(pkgs))
}

// relPath makes finding paths workspace-relative so GitHub can anchor
// the annotation to the file in the diff view.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	if rel, err := filepath.Rel(wd, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return path
}

// escapeActions escapes a message for a GitHub workflow command, which
// is newline-delimited on stdout.
func escapeActions(msg string) string {
	return strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(msg)
}
