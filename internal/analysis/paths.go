package analysis

import "strings"

// PathHasSuffix reports whether pkgPath ends in the path suffix on a
// path-segment boundary ("continustreaming/internal/core" matches
// "internal/core"; "internal/corex" does not).
func PathHasSuffix(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// SimulatedPath reports whether pkgPath runs under the simulated clock
// and the seeded RNG streams, or builds the world they run on: the scope
// of both determinism rules (wallclock and maporder). Every internal
// package qualifies except the livenet socket runtime — which talks to
// real sockets and real time by design — and the analysis framework
// itself. cmd/, examples/, and the public root package host wall-clock
// entry points (benchmark timing, UDP deadlines) and are exempt wholesale
// because they never run inside the simulator's deterministic loop.
func SimulatedPath(pkgPath string) bool {
	if !strings.Contains(pkgPath+"/", "internal/") {
		return false
	}
	if PathHasSuffix(pkgPath, "internal/livenet") {
		return false
	}
	if strings.Contains(pkgPath, "internal/analysis") {
		return false
	}
	return true
}
