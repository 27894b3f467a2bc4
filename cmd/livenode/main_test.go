package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"continustreaming/internal/livenet"
)

// TestProtocolFlagsLandInConfig: a flag's value is the value of the
// livenet.Config field it names — the same contract continusim's flags
// keep (cmd/continusim TestFlagsLandInConfig), so -pushhops 0 is pull-only
// on both commands.
func TestProtocolFlagsLandInConfig(t *testing.T) {
	cfg := livenet.DefaultConfig()
	fs := flag.NewFlagSet("livenode", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bindProtocolFlags(fs, &cfg)
	if err := fs.Parse([]string{"-pushhops", "0", "-peers", "12", "-period", "20ms", "-seed", "0", "-retry", "3", "-engine=false", "-repair=false"}); err != nil {
		t.Fatal(err)
	}
	want := livenet.DefaultConfig()
	want.PushHops, want.Peers, want.Period, want.Seed, want.RetryPeriods = 0, 12, 20*time.Millisecond, 0, 3
	want.Engine, want.Repair = false, false
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("parsed config %+v, want %+v", cfg, want)
	}
}
