package bench

import (
	"fmt"
	"strings"
	"time"

	"protego/internal/exploits"
	"protego/internal/vulngen"
)

// VulngenReport summarizes a vulnerable-environment sweep: n generated
// misconfigured environments, each replaying the full Table-6 CVE corpus
// on a mutated baseline/Protego golden-snapshot pair with per-replay
// containment checking.
type VulngenReport struct {
	Seed         int64 `json:"seed"`
	Environments int   `json:"environments"`
	// Replays counts CVE replays (each a fresh clone pair of the mutated
	// environment).
	Replays int     `json:"replays"`
	Seconds float64 `json:"seconds"`
	// EnvsPerSec includes environment construction (two golden clones,
	// mutation application, shape checks) and all of its corpus replays.
	EnvsPerSec    float64 `json:"envs_per_sec"`
	ReplaysPerSec float64 `json:"replays_per_sec"`
	// Concessions counts payload actions that succeeded on Protego because
	// the generated environment's own policy authorized them (e.g. the
	// attacker-authored fstab whitelist row) — contained by policy.
	Concessions int `json:"concessions"`
	// Uncontained counts containment problems: Protego escalations,
	// invariant violations, unexplained baseline non-escalations.
	Uncontained int `json:"uncontained"`
	// Failures carries the ddmin-shrunk replayable reproducers (Go
	// literals), empty on a clean run.
	Failures []string `json:"failures,omitempty"`
}

// Clean reports whether every generated environment held containment.
func (r *VulngenReport) Clean() bool {
	return r.Uncontained == 0 && len(r.Failures) == 0
}

// RunVulngen generates n environments from seed and replays the full CVE
// corpus inside each. Unlike the test smoke it keeps going past failures
// so the report counts them all, shrinking each failing scenario to its
// minimal replay literal.
func RunVulngen(n int, seed int64) (*VulngenReport, error) {
	gen := vulngen.NewGenerator(seed)
	cfg := vulngen.Config{}
	rep := &VulngenReport{Seed: seed, Environments: n}
	start := time.Now()
	for i := 0; i < n; i++ {
		sc := gen.Scenario()
		res, err := vulngen.ReplayScenario(sc, exploits.Corpus, cfg)
		if err != nil {
			return nil, fmt.Errorf("env %d: %v", i, err)
		}
		rep.Replays += res.Replays
		rep.Concessions += res.Concessions
		if res.Failing() {
			rep.Uncontained += len(res.Problems)
			min := vulngen.ShrinkScenario(sc, exploits.Corpus, cfg)
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("env %d: %s\nreplay:\n%s", i, res, min.GoLiteral()))
		}
	}
	rep.Seconds = time.Since(start).Seconds()
	if rep.Seconds > 0 {
		rep.EnvsPerSec = float64(rep.Environments) / rep.Seconds
		rep.ReplaysPerSec = float64(rep.Replays) / rep.Seconds
	}
	return rep, nil
}

// FormatVulngen renders the report for the protego-bench -vulngen mode.
func FormatVulngen(r *VulngenReport) string {
	var b strings.Builder
	b.WriteString("Vulnerable-environment generation (mutated configs, full CVE corpus per environment)\n")
	fmt.Fprintf(&b, "  seed=%d environments=%d replays=%d in %.2fs (%.1f envs/s, %.0f replays/s)\n",
		r.Seed, r.Environments, r.Replays, r.Seconds, r.EnvsPerSec, r.ReplaysPerSec)
	fmt.Fprintf(&b, "  policy concessions (environment-authorized actions): %d\n", r.Concessions)
	fmt.Fprintf(&b, "  uncontained escalations / invariant violations: %d\n", r.Uncontained)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAILURE %s\n", f)
	}
	return b.String()
}
