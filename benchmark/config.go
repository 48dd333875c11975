package main

import (
	"encoding/json"
	"fmt"
	"os"
)

const (
	defaultSeed = 1
	// maxSeconds ends a workload's timed rounds even when an image still
	// lacks its minimum rounds or samples.
	maxSeconds = 150
	// A traced run keeps the full records of every recordEvery-th request,
	// and a reservoir of reservoirSize durations per span name for its
	// median.
	recordEvery   = 64
	reservoirSize = 4096
)

// workloadSpec is how one workload runs. The counts are fixed: a round
// never runs for a fixed duration.
type workloadSpec struct {
	Name                   string
	setup                  func(*workloadSpec, int64, *options) (instance, error)
	OpsPerRound, WarmupOps int
	// PoolRounds is how many rounds of distinct generated inputs the seed
	// makes; later rounds reuse them in order.
	PoolRounds int
}

// workloadSpecs holds every workload BENCHMARK.json may list.
var workloadSpecs = []workloadSpec{
	{Name: "lmbench-mix", setup: newLmbench, OpsPerRound: 68000, WarmupOps: 6800},
	{Name: "setuid-utils", setup: newSetuidUtils, OpsPerRound: 9000, WarmupOps: 900},
	{Name: "policy-churn", setup: newPolicyChurn, OpsPerRound: 500, WarmupOps: 50},
	{Name: "difffuzz", setup: newDiffFuzz, OpsPerRound: 100, WarmupOps: 10, PoolRounds: 40},
	{Name: "cve-replay", setup: newCVEReplay, OpsPerRound: 45, WarmupOps: 3, PoolRounds: 40},
}

// sizes are the counts of a run beyond each workload's own. Runs use
// fullSizes; tests shrink them.
type sizes struct {
	// setups is how many times each workload is set up in one run; the
	// median set-up time is reported and the last set-up is measured.
	setups int
	// minRounds and minSamples are the least each image gets before the
	// timed rounds may stop.
	minRounds, minSamples int
	probes                probeCounts
}

// probeCounts is how many calls each probe of a traced run makes.
type probeCounts struct {
	calls, parse              int // cheap calls, timed in batches of probeBatch
	build, clone, fingerprint int
	kernel                    int // rounds of every lmbench-mix op on fresh images
	userspace                 int // rounds of every setuid-utils op and policy-churn cycles
	difffuzz, vulngen         int // traces and environments
}

var fullSizes = sizes{
	setups: 15, minRounds: 3, minSamples: 1000,
	probes: probeCounts{
		calls: 10000, parse: 2000, build: 5, clone: 300, fingerprint: 300,
		kernel: 200, userspace: 50, difffuzz: 20, vulngen: 3,
	},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Gated metrics are BENCHMARK.json's end-to-end metrics, reported on
	// every workload; the others only on Workloads.
	Gated     bool     `json:"-"`
	Workloads []string `json:"-"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var (
	allWorkloads      = []string{"lmbench-mix", "setuid-utils", "policy-churn", "difffuzz", "cve-replay"}
	twoImageWorkloads = []string{"lmbench-mix", "setuid-utils", "policy-churn"}
	utilityWorkloads  = []string{"setuid-utils", "policy-churn"}
)

// reportedOnly are end-to-end metrics that are printed, stored by -json
// and judged by -compare, but not listed in BENCHMARK.json: each exists on
// only some workloads, reads 0 on a correct program, or is for reading
// only.
var reportedOnly = []metricSpec{
	{Name: "baseline_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.2, Workloads: twoImageWorkloads},
	{Name: "baseline_p50_us", Unit: "us", Better: "lower", Bound: 0.2, Workloads: utilityWorkloads},
	{Name: "baseline_p99_us", Unit: "us", Better: "lower", Bound: 0.2, Workloads: utilityWorkloads},
	{Name: "protego_vs_baseline_pct", Unit: "%", Workloads: twoImageWorkloads},
	{Name: "host_slowdown", Unit: "ratio", Workloads: allWorkloads},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0, Workloads: allWorkloads},
}

// config is what one run reads from BENCHMARK.json, with the sizes it runs
// at.
type config struct {
	Seconds   float64 // run_seconds: the default --seconds
	Workloads []workloadSpec
	Metrics   []metricSpec // end_to_end, then reportedOnly
	PerLayer  []layerSpec
	sizes
}

// loadConfig reads BENCHMARK.json, the one list of the benchmark's
// workloads and metrics.
func loadConfig(path string) (*config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []layerSpec  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	c := &config{Seconds: f.RunSeconds, PerLayer: f.PerLayer, sizes: fullSizes}
	for _, w := range f.Workloads {
		i := indexOf(workloadSpecs, w.Name)
		if i < 0 {
			return nil, fmt.Errorf("%s: unknown workload %q", path, w.Name)
		}
		c.Workloads = append(c.Workloads, workloadSpecs[i])
	}
	for _, m := range f.EndToEnd {
		m.Gated = true
		c.Metrics = append(c.Metrics, m)
	}
	c.Metrics = append(c.Metrics, reportedOnly...)
	return c, nil
}

func indexOf(specs []workloadSpec, name string) int {
	for i := range specs {
		if specs[i].Name == name {
			return i
		}
	}
	return -1
}

func (c *config) workload(name string) (*workloadSpec, bool) {
	i := indexOf(c.Workloads, name)
	if i < 0 {
		return nil, false
	}
	return &c.Workloads[i], true
}

func (c *config) metric(name string) (*metricSpec, bool) {
	for i := range c.Metrics {
		if c.Metrics[i].Name == name {
			return &c.Metrics[i], true
		}
	}
	return nil, false
}

// reportedOn reports whether end-to-end metric m belongs to workload w.
func (m *metricSpec) reportedOn(w string) bool {
	if m.Gated {
		return true
	}
	for _, x := range m.Workloads {
		if x == w {
			return true
		}
	}
	return false
}
