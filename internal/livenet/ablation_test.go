package livenet

import "testing"

// TestAblationNumbers runs the kill scenario of EXPERIMENTS.md (32 peers,
// a third killed at period 30 of 80) with the engine and the repair
// pipeline switched off one at a time, logs the table row of each run
// (-v), and asserts the columns that are structural: what a switched-off
// half must leave at zero and what a switched-on half must achieve.
// The sessions are stepped, not paced (the numbers are per period, and
// no peer reads the period's length), and replay exactly per seed;
// continuity is held to a liveness bar, on the full configuration, so
// the test tracks the structure rather than one seed's numbers.
func TestAblationNumbers(t *testing.T) {
	base := DefaultConfig()
	base.Peers = 32
	base.Seed = 99
	base.Churn = []ChurnEvent{{Period: 30, KillFraction: 0.33}}
	for _, c := range []struct {
		name           string
		repair, engine bool
	}{
		{"repair+engine", true, true},
		{"no-repair", false, true},
		{"no-engine", true, false},
		{"neither", false, false},
	} {
		cfg := base
		cfg.Repair, cfg.Engine = c.repair, c.engine
		st := runStepped(cfg, 80)
		t.Logf("%-14s continuity=%.3f tail15=%.3f push=%d rescued=%d queueServed=%d replaced=%d deadDropped=%d endDeadLinks=%d",
			c.name, st.Continuity, st.TailContinuity(15), st.PushDelivered, st.Rescued,
			st.QueueServed, st.Replaced, st.DeadDropped, st.EndDeadLinks)
		if !c.engine && (st.PushDelivered != 0 || st.QueueServed != 0) {
			t.Errorf("%s: engine off, yet %d pushes delivered and %d grants served from carry queues", c.name, st.PushDelivered, st.QueueServed)
		}
		if !c.repair && (st.DeadDropped != 0 || st.EndDeadLinks == 0) {
			t.Errorf("%s: repair off, yet %d dead links dropped and %d left (want 0 and > 0)", c.name, st.DeadDropped, st.EndDeadLinks)
		}
		if c.repair && st.EndDeadLinks != 0 {
			t.Errorf("%s: repair on, yet %d dead links left", c.name, st.EndDeadLinks)
		}
		if c.repair && c.engine && st.TailContinuity(15) < 0.5 {
			t.Errorf("%s: recovered tail %.3f, want >= 0.5", c.name, st.TailContinuity(15))
		}
	}
}
