package bench

import (
	"fmt"
	"strings"

	"protego/internal/exploits"
	"protego/internal/vulngen"
)

// VulngenReport summarizes a vulnerable-environment sweep: n generated
// misconfigured environments, each replaying the full Table-6 CVE corpus
// on a mutated baseline/Protego golden-snapshot pair with per-replay
// containment checking.
type VulngenReport struct {
	Seed         int64
	Environments int
	// Replays counts CVE replays (each a fresh clone pair of the mutated
	// environment).
	Replays int
	// Concessions counts payload actions that succeeded on Protego because
	// the generated environment's own policy authorized them (e.g. the
	// attacker-authored fstab whitelist row) — contained by policy.
	Concessions int
	// Uncontained counts containment problems: Protego escalations,
	// invariant violations, unexplained baseline non-escalations.
	Uncontained int
	// Failures carries the ddmin-shrunk replayable reproducers (the
	// .scenario text a regression file under vulngen's testdata holds),
	// empty on a clean run.
	Failures []string
}

// Clean reports whether every generated environment held containment.
func (r *VulngenReport) Clean() bool {
	return r.Uncontained == 0 && len(r.Failures) == 0
}

// RunVulngen sweeps n environments generated from seed, replaying the
// full CVE corpus inside each, and shrinks every failing scenario to its
// minimal replay scenario.
func RunVulngen(n int, seed int64) (*VulngenReport, error) {
	cfg := vulngen.Config{}
	stats, err := vulngen.Sweep(seed, n, exploits.Corpus, cfg)
	if err != nil {
		return nil, err
	}
	rep := &VulngenReport{
		Seed:         seed,
		Environments: stats.Environments,
		Replays:      stats.Replays,
		Concessions:  stats.Concessions,
	}
	for _, res := range stats.Failures {
		rep.Uncontained += len(res.Problems)
		min := vulngen.ShrinkScenario(res.Scenario, exploits.Corpus, cfg)
		rep.Failures = append(rep.Failures, fmt.Sprintf("%s\nreplay:\n%s", res, min.Encode()))
	}
	return rep, nil
}

// FormatVulngen renders the report for the protego-bench -vulngen mode.
func FormatVulngen(r *VulngenReport) string {
	var b strings.Builder
	b.WriteString("Vulnerable-environment generation (mutated configs, full CVE corpus per environment)\n")
	fmt.Fprintf(&b, "  seed=%d environments=%d replays=%d\n", r.Seed, r.Environments, r.Replays)
	fmt.Fprintf(&b, "  policy concessions (environment-authorized actions): %d\n", r.Concessions)
	fmt.Fprintf(&b, "  uncontained escalations / invariant violations: %d\n", r.Uncontained)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAILURE %s\n", f)
	}
	return b.String()
}
