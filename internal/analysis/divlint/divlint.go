// Package divlint assembles the project's analyzer suite and the scoping
// policy that decides which packages each contract applies to. cmd/divlint,
// the unitchecker mode, and the zero-findings regression test all go through
// this package so the policy cannot drift between harnesses.
package divlint

import (
	"divlab/internal/analysis"
	"divlab/internal/analysis/conservation"
	"divlab/internal/analysis/determinism"
	"divlab/internal/analysis/hotalloc"
	"divlab/internal/analysis/isolation"
	"divlab/internal/analysis/lineaddr"
	"divlab/internal/analysis/sinkerr"
	"divlab/internal/analysis/specstring"
)

// simPackages are the packages on the simulated path: everything here must
// be bit-deterministic, because the memoized run cache and the golden-file
// byte-identity guarantees assume equal inputs produce equal outputs.
var simPackages = map[string]bool{
	"divlab/internal/sim":         true,
	"divlab/internal/cpu":         true,
	"divlab/internal/mem":         true,
	"divlab/internal/cache":       true,
	"divlab/internal/dram":        true,
	"divlab/internal/tpc":         true,
	"divlab/internal/prefetchers": true,
	"divlab/internal/workloads":   true,
	"divlab/internal/exp":         true,
	"divlab/internal/obs":         true,
	"divlab/internal/metrics":     true,
	"divlab/internal/prefetch":    true,
	"divlab/internal/trace":       true,
	"divlab/internal/vmem":        true,
	"divlab/internal/bpred":       true,
	"divlab/internal/stats":       true,
}

// inSimScope reports whether determinism rules bind the package.
func inSimScope(path string) bool { return simPackages[path] }

// hotPackages are the simulator-core packages on the demand/prefetch access
// path, which must be allocation-free on every input. The prefetcher
// implementations (divlab/internal/tpc, divlab/internal/prefetchers) are
// deliberately out of scope: their map-backed training tables model the
// paper's hardware storage budget and allocate while warming up, reaching
// zero only in steady state — a property the dynamic pin
// (BenchmarkAccessPath at 0 allocs/op, enforced by `benchjson -validate`)
// covers and a whole-input static contract cannot.
var hotPackages = map[string]bool{
	"divlab/internal/sim":   true,
	"divlab/internal/mem":   true,
	"divlab/internal/cache": true,
	"divlab/internal/cpu":   true,
	"divlab/internal/dram":  true,
}

func inHotScope(path string) bool { return hotPackages[path] }

// everywhere applies an analyzer to every package, the analyzer suite
// included: the contract checks are cheap and self-hosting keeps us honest.
func everywhere(string) bool { return true }

// Suite returns the scoped analyzer suite in reporting order.
func Suite() []analysis.Scoped {
	return []analysis.Scoped{
		{Analyzer: determinism.Analyzer, Applies: inSimScope},
		{Analyzer: specstring.Analyzer, Applies: everywhere},
		{Analyzer: conservation.Analyzer, Applies: everywhere},
		{Analyzer: sinkerr.Analyzer, Applies: everywhere},
		// The flow-sensitive pair rides the same sim scope as determinism:
		// isolation guards the run-purity assumption behind the memoized run
		// cache, lineaddr the typed cache.Line unit discipline. Both need the
		// whole-program view, so the pattern driver is their authoritative
		// harness (the unitchecker sees only intra-package call edges).
		{Analyzer: isolation.Analyzer, Applies: inSimScope},
		{Analyzer: lineaddr.Analyzer, Applies: inSimScope},
		// hotalloc freezes PR 6's zero-alloc benchmark pin into a lint-time
		// contract on the hot packages. It follows call-graph edges across
		// packages, so — like isolation — the pattern driver is its
		// authoritative harness.
		{Analyzer: hotalloc.Analyzer, Applies: inHotScope},
	}
}

// Run loads the patterns and applies the suite.
func Run(dir string, patterns ...string) ([]analysis.Finding, error) {
	findings, _, err := RunTimed(dir, patterns...)
	return findings, err
}

// RunTimed is Run plus per-analyzer wall-clock timings, slowest first —
// the data behind divlint -timing and the CI lint time budget.
func RunTimed(dir string, patterns ...string) ([]analysis.Finding, []analysis.Timing, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	return analysis.RunAnalyzersTimed(pkgs, Suite())
}

// Audit loads the patterns and reports stale lint:allow directives — ones
// that no longer suppress any finding of their named analyzer.
func Audit(dir string, patterns ...string) ([]analysis.StaleAllow, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.AuditAllows(pkgs, Suite())
}
