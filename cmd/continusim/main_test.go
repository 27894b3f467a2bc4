package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCheckModeFlags drives the rejection main applies after flag.Parse:
// a flag the selected mode never reads, or a seed neither mode would use,
// is named in an error, and every flag it does read — the invocations CI
// and EXPERIMENTS.md use — passes.
func TestCheckModeFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the error; empty = accepted
	}{
		{"-scenario hetstatic -delayseg 20", "-delayseg does nothing under -scenario"},
		{"-scenario hetstatic -delay 1", "-delay does nothing under -scenario"},
		{"-scenario hetstatic -sizes 100", "-sizes does nothing under -scenario"},
		{"-scenario hetstatic -par 4", "-par does nothing under -scenario"},
		{"-scenario hetstatic -experiment fig5", "-experiment does nothing under -scenario"},
		{"-experiment fig5 -nodes 77", "-nodes does nothing under -experiment"},
		{"-nodes 77", "-nodes does nothing under -experiment"},
		{"-experiment table1 -phaseprof", "-phaseprof does nothing under -experiment"},
		{"-scenario hetstatic -nodes 100 -rounds 3 -seed 0", "-seed 0 would run as seed 1"},
		{"-experiment fig5 -seed 0", "-seed 0 would run as seed 1"},
		{"-scenario flashcrowd100k -rounds 12 -tail 4 -phaseprof", ""},
		{"-scenario hetdynamic -nodes 8000 -seed 2 -workers 4 -pushhops 1 -queuefactor 3 -csv -churntrace x", ""},
		{"-experiment all -rounds 10 -tail 4 -sizes 100,200,400 -par 4", ""},
		{"-experiment fig9 -delay 5 -delayseg 40 -churntrace x -workers 1", ""},
		{"", ""},
	} {
		fs := flag.NewFlagSet("continusim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		// main's flag names; the check reads names and -seed's printed
		// value, so every valued flag can be a string here.
		scenario := fs.String("scenario", "", "")
		for _, name := range []string{"experiment", "nodes", "rounds", "tail", "seed", "sizes", "delay", "delayseg", "workers", "par", "pushhops", "queuefactor", "churntrace"} {
			fs.String(name, "", "")
		}
		fs.Bool("phaseprof", false, "")
		fs.Bool("csv", false, "")
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		err := checkModeFlags(fs, *scenario != "")
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
