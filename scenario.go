package continustreaming

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"continustreaming/internal/churn"
)

// Scenario constructors name the configurations the evaluation actually
// runs, replacing ad-hoc field poking after DefaultConfig. Each returns a
// plain Config — callers may still adjust fields (Seed, Workers, PushHops,
// Churn.Trace) before Run/RunContext — and each is a pure function of n, so
// the same constructor always reproduces the same run.
//
// The four environment constructors span the §5.1 evaluation grid
// (bandwidth arrangement × membership):
//
//	ScenarioHetStatic   heterogeneous bandwidth, fixed membership
//	ScenarioHetDynamic  heterogeneous bandwidth, 5%/round churn
//	ScenarioHomStatic   homogeneous bandwidth, fixed membership
//	ScenarioHomDynamic  homogeneous bandwidth, 5%/round churn
//
// ScenarioFlashcrowd is the scale-out stress scenario (the dynamic
// heterogeneous environment at populations past the paper's 8000 — 10k,
// 100k, 1M — the workload the sharded round pipeline exists for), and
// ScenarioBaseline is the CoolStreaming comparison point.

// ScenarioHetStatic is the paper's default environment: heterogeneous
// bandwidth, fixed membership, the full ContinuStreaming system.
func ScenarioHetStatic(n int) Config { return DefaultConfig(n) }

// ScenarioHetDynamic is the heterogeneous dynamic environment: 5% of the
// population leaves and rejoins every scheduling period.
func ScenarioHetDynamic(n int) Config {
	cfg := ScenarioHetStatic(n)
	cfg.Churn = churn.DefaultConfig()
	return cfg
}

// ScenarioHomStatic is the homogeneous static environment of the §5.1
// theory-versus-simulation table: every node gets the mean bandwidth.
func ScenarioHomStatic(n int) Config {
	cfg := ScenarioHetStatic(n)
	cfg.Bandwidth.Homogeneous = true
	return cfg
}

// ScenarioHomDynamic is the homogeneous dynamic environment.
func ScenarioHomDynamic(n int) Config {
	cfg := ScenarioHomStatic(n)
	cfg.Churn = churn.DefaultConfig()
	return cfg
}

// ScenarioFlashcrowd is the scale-out stress scenario: the full system in
// the dynamic heterogeneous environment at populations past the paper's
// largest evaluation — the configuration behind the flashcrowd10k and
// flashcrowd100k runs. It is ScenarioHetDynamic under a name of its own
// because it is the scenario CI and the benchmarks pin.
func ScenarioFlashcrowd(n int) Config {
	return ScenarioHetDynamic(n)
}

// ScenarioBaseline is the CoolStreaming comparison point: the pull-only
// baseline the paper measures against, in the static environment.
func ScenarioBaseline(n int) Config {
	cfg := ScenarioHetStatic(n)
	cfg.Profile = CoolStreaming()
	return cfg
}

// scenarioTable maps selector names to constructors — the single source
// both ScenarioByName and Scenarios read, so the help text can never
// drift from what actually resolves.
var scenarioTable = map[string]func(int) Config{
	"hetstatic":  ScenarioHetStatic,
	"hetdynamic": ScenarioHetDynamic,
	"homstatic":  ScenarioHomStatic,
	"homdynamic": ScenarioHomDynamic,
	"flashcrowd": ScenarioFlashcrowd,
	"baseline":   ScenarioBaseline,
}

// Scenarios lists the selector names ScenarioByName accepts, sorted.
func Scenarios() []string {
	names := make([]string, 0, len(scenarioTable))
	for name := range scenarioTable {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ScenarioByName resolves a scenario selector to its Config at n nodes.
// The name may carry a population suffix — "flashcrowd100k",
// "hetdynamic8000", "flashcrowd1m" — which wins over n; a bare name uses
// n, or the scenario default of 1000 nodes when n <= 0.
func ScenarioByName(name string, n int) (Config, error) {
	base := strings.ToLower(strings.TrimSpace(name))
	for prefix, ctor := range scenarioTable {
		// No table name is a prefix of another, so at most one entry can
		// match and the map's iteration order cannot change the result.
		if !strings.HasPrefix(base, prefix) {
			continue
		}
		suffix := base[len(prefix):]
		if suffix != "" {
			size, err := parsePopulation(suffix)
			if err != nil {
				return Config{}, fmt.Errorf("continustreaming: scenario %q: %v", name, err)
			}
			n = size
		}
		if n <= 0 {
			n = 1000
		}
		return ctor(n), nil
	}
	return Config{}, fmt.Errorf("continustreaming: unknown scenario %q (have %s)",
		name, strings.Join(Scenarios(), ", "))
}

// parsePopulation reads a population suffix: a plain integer, or one with
// a k (thousand) or m (million) multiplier, as in "100k" or "1m".
func parsePopulation(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1_000, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1_000_000, s[:len(s)-1]
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 || v > math.MaxInt/mult {
		return 0, fmt.Errorf("bad population suffix %q", s)
	}
	return v * mult, nil
}
