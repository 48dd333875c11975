package main

import (
	"fmt"

	"protego/internal/difffuzz"
	"protego/internal/exploits"
	"protego/internal/kernel"
	"protego/internal/seccomp/profiles"
	"protego/internal/vulngen"
	"protego/internal/world"
)

// diffFuzz is the difffuzz workload: one op runs one seeded trace on a
// fresh baseline/Protego clone pair with per-step fingerprints and the
// standing invariants, seccomp profiles in audit mode.
type diffFuzz struct {
	tr     *spanTracer
	cfg    difffuzz.Config
	ops    int
	traces []difffuzz.Trace
	steps  int
}

func newDiffFuzz(spec *workloadSpec, seed int64, opts *options) (instance, error) {
	audit, err := profiles.Load(kernel.ModeProtego)
	if err != nil {
		return nil, fmt.Errorf("difffuzz: golden profiles: %w", err)
	}
	gen := difffuzz.NewGenerator(seed)
	w := &diffFuzz{
		cfg:    difffuzz.Config{SeccompAudit: audit, BreakMountPolicy: opts.breakMountPolicy},
		ops:    spec.OpsPerRound,
		traces: make([]difffuzz.Trace, spec.OpsPerRound*spec.PoolRounds),
	}
	for i := range w.traces {
		w.traces[i] = gen.Next()
	}
	return w, nil
}

func (w *diffFuzz) images() []string              { return []string{imgPair} }
func (w *diffFuzz) setTracer(tr *spanTracer)      { w.tr = tr }
func (w *diffFuzz) machines(int) []*world.Machine { return nil }
func (w *diffFuzz) check() error                  { return nil }
func (w *diffFuzz) input(r, i int) difffuzz.Trace {
	return w.traces[poolIndex(len(w.traces), w.ops, r, i)]
}

func (w *diffFuzz) run(_, r, i int) error {
	w.tr.begin("difffuzz.run")
	res, err := difffuzz.Run(w.input(r, i), w.cfg)
	w.tr.end()
	if err != nil {
		return err
	}
	w.steps += res.Steps
	if res.Failed() {
		return fmt.Errorf("difffuzz trace %d of round %d: %s", i, r, res)
	}
	return nil
}

// cveReplay is the cve-replay workload: one op builds one seeded
// misconfigured environment on a golden clone pair and replays the whole
// CVE corpus in it, each CVE on fresh clones.
type cveReplay struct {
	tr        *spanTracer
	cfg       vulngen.Config
	ops       int
	scenarios []vulngen.Scenario
}

func newCVEReplay(spec *workloadSpec, seed int64, opts *options) (instance, error) {
	gen := vulngen.NewGenerator(seed)
	w := &cveReplay{
		cfg:       vulngen.Config{BreakMountPolicy: opts.breakMountPolicy},
		ops:       spec.OpsPerRound,
		scenarios: make([]vulngen.Scenario, spec.OpsPerRound*spec.PoolRounds),
	}
	for i := range w.scenarios {
		w.scenarios[i] = gen.Scenario()
	}
	return w, nil
}

func (w *cveReplay) images() []string              { return []string{imgPair} }
func (w *cveReplay) setTracer(tr *spanTracer)      { w.tr = tr }
func (w *cveReplay) machines(int) []*world.Machine { return nil }
func (w *cveReplay) check() error                  { return nil }
func (w *cveReplay) input(r, i int) vulngen.Scenario {
	return w.scenarios[poolIndex(len(w.scenarios), w.ops, r, i)]
}

func (w *cveReplay) run(_, r, i int) error {
	w.tr.begin("vulngen.replay_env")
	res, err := vulngen.ReplayScenario(w.input(r, i), exploits.Corpus, w.cfg)
	w.tr.end()
	if err != nil {
		return err
	}
	if res.Failing() {
		return fmt.Errorf("cve-replay environment %d of round %d: %s", i, r, res)
	}
	return nil
}

// poolIndex maps op i of round r onto a pool of n generated inputs holding
// whole rounds of ops inputs each; rounds past the pool reuse it in order.
func poolIndex(n, ops, r, i int) int {
	return (r*ops + i) % n
}
