package analysis

import "testing"

func TestPathHasSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"continustreaming/internal/core", "internal/core", true},
		{"internal/core", "internal/core", true},
		{"continustreaming/internal/corex", "internal/core", false},
		{"continustreaming/xinternal/core", "internal/core", false},
	}
	for _, c := range cases {
		if got := PathHasSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("PathHasSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}

func TestSimulatedPath(t *testing.T) {
	for _, path := range []string{
		"continustreaming/internal/core",
		"continustreaming/internal/sim",
		"internal/experiment", // fixture form
	} {
		if !SimulatedPath(path) {
			t.Errorf("SimulatedPath(%q) = false", path)
		}
	}
	for _, path := range []string{
		"continustreaming/internal/livenet",
		"internal/livenet",
		"continustreaming/internal/analysis/maporder",
		"continustreaming/cmd/continusim",
		"cmd/tool",
		"continustreaming",
	} {
		if SimulatedPath(path) {
			t.Errorf("SimulatedPath(%q) = true", path)
		}
	}
}
