package bench

import (
	"fmt"
	"strings"

	"protego/internal/difffuzz"
	"protego/internal/kernel"
	"protego/internal/seccomp/profiles"
)

// DiffFuzzReport summarizes a differential-fuzzing run: n seeded random
// traces executed on baseline/Protego clone pairs stamped from the golden
// images, with per-step fingerprint comparison and invariant checking.
type DiffFuzzReport struct {
	Seed                   int64
	Traces                 int
	Steps                  int
	ExplainedDivergences   int
	UnexplainedDivergences int
	InvariantViolations    int
	// Failures carries the shrunk replayable reproducers, empty on a
	// clean run.
	Failures []string
}

// Clean reports whether the run found no unexplained divergences and no
// invariant violations.
func (r *DiffFuzzReport) Clean() bool {
	return r.UnexplainedDivergences == 0 && r.InvariantViolations == 0
}

// RunDiffFuzz executes n generated traces from seed and aggregates the
// outcome. Unlike the test sweep it keeps going past failures so the
// report counts them all, shrinking each to its replay literal. The
// Protego machine audits every step against the committed golden seccomp
// profiles, so a utility straying outside its learned syscall allowlist
// counts as an invariant violation here too.
func RunDiffFuzz(n int, seed int64) (*DiffFuzzReport, error) {
	audit, err := profiles.Load(kernel.ModeProtego)
	if err != nil {
		return nil, fmt.Errorf("load golden profiles: %v", err)
	}
	cfg := difffuzz.Config{SeccompAudit: audit}
	rep := &DiffFuzzReport{Seed: seed, Traces: n}
	gen := difffuzz.NewGenerator(seed)
	for i := 0; i < n; i++ {
		tr := gen.Next()
		res, err := difffuzz.Run(tr, cfg)
		if err != nil {
			return nil, fmt.Errorf("trace %d: %v", i, err)
		}
		rep.Steps += res.Steps
		rep.ExplainedDivergences += res.Explained
		if res.Divergence != nil {
			rep.UnexplainedDivergences++
		}
		rep.InvariantViolations += len(res.Violations)
		if res.Failed() {
			min := difffuzz.Shrink(tr, cfg)
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("trace %d: %s\nreplay:\n%s", i, res, min.GoLiteral()))
		}
	}
	return rep, nil
}

// FormatDiffFuzz renders the report for the protego-bench -difffuzz mode.
func FormatDiffFuzz(r *DiffFuzzReport) string {
	var b strings.Builder
	b.WriteString("Differential syscall fuzzing (baseline vs Protego, per-step fingerprints)\n")
	fmt.Fprintf(&b, "  seed=%d traces=%d steps=%d\n", r.Seed, r.Traces, r.Steps)
	fmt.Fprintf(&b, "  explained (by-design) divergences: %d\n", r.ExplainedDivergences)
	fmt.Fprintf(&b, "  unexplained divergences: %d\n", r.UnexplainedDivergences)
	fmt.Fprintf(&b, "  invariant violations: %d\n", r.InvariantViolations)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAILURE %s\n", f)
	}
	return b.String()
}
