package bench

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"protego/internal/kernel"
	"protego/internal/trace"
	"protego/internal/world"
)

// Report is the machine-readable companion to Table 5, serialized as
// BENCH_protego.json by `protego-bench -table 5 -json <path>`. Besides the
// baseline-vs-Protego rows it records the trace layer's own emission cost
// (the acceptance bar is < 1µs per simulated syscall) and the per-syscall
// and per-LSM-hook latency distributions harvested from the kernel tracer,
// so the trace histograms — not ad-hoc stopwatches — are the timing source
// for the distribution data.
type Report struct {
	Tool       string          `json:"tool"`
	Quick      bool            `json:"quick"`
	Benchmarks []BenchRow      `json:"benchmarks"`
	Emission   EmissionReport  `json:"trace_emission"`
	Fastpath   *FastpathReport `json:"fastpath"`
	Syscalls   []HistRow       `json:"syscall_histograms"`
	LSMHooks   []HistRow       `json:"lsm_hook_histograms"`
	Decisions  []DecisionRow   `json:"lsm_decisions"`
	// Scaling holds the parallel throughput sweep (GOMAXPROCS 1/2/4/8
	// over the hot paths); interpret the curves against its HostCPUs.
	Scaling *ScalingReport `json:"scaling"`
	// DiffFuzz holds the differential-fuzzing run recorded by
	// `protego-bench -difffuzz N -json <path>`; absent until that mode
	// has been run against the report file.
	DiffFuzz *DiffFuzzReport `json:"difffuzz,omitempty"`
	// Seccomp holds the syscall-allowlist attack-surface table and the
	// enter() prologue overhead gate recorded by
	// `protego-bench -seccomp -json <path>`.
	Seccomp *SeccompReport `json:"seccomp,omitempty"`
	// Vulngen holds the vulnerable-environment sweep recorded by
	// `protego-bench -vulngen N -json <path>`.
	Vulngen *VulngenReport `json:"vulngen,omitempty"`
}

// BenchRow is one Table 5 row. Linux/Protego are in the row's native Unit
// (µs for the microbenchmarks); for time-per-operation units the values
// are also normalized to ns/op.
type BenchRow struct {
	Name             string  `json:"name"`
	Unit             string  `json:"unit"`
	Linux            float64 `json:"linux"`
	LinuxCI95        float64 `json:"linux_ci95"`
	Protego          float64 `json:"protego"`
	ProtegoCI95      float64 `json:"protego_ci95"`
	LinuxNsPerOp     float64 `json:"linux_ns_per_op,omitempty"`
	ProtegoNsPerOp   float64 `json:"protego_ns_per_op,omitempty"`
	OverheadPct      float64 `json:"overhead_pct"`
	PaperOverheadPct float64 `json:"paper_overhead_pct"`
	HigherIsBetter   bool    `json:"higher_is_better,omitempty"`
}

// EmissionReport records what the tracer itself costs per simulated
// syscall (one enter/exit event pair plus the histogram observation).
type EmissionReport struct {
	Ops     int     `json:"ops"`
	NsPerOp float64 `json:"ns_per_op"`
	// Under1us reports the acceptance criterion: emission must stay
	// below 1µs per simulated syscall.
	Under1us bool `json:"under_1us"`
}

// HistRow is one latency histogram summarized from the kernel tracer.
type HistRow struct {
	Name   string  `json:"name"`
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P95Ns  float64 `json:"p95_ns"`
	P99Ns  float64 `json:"p99_ns"`
	MaxNs  int64   `json:"max_ns"`
}

// DecisionRow is one (hook, module, decision) counter from the LSM chain.
type DecisionRow struct {
	Hook     string `json:"hook"`
	Module   string `json:"module"`
	Decision string `json:"decision"`
	Count    uint64 `json:"count"`
}

// nsPerUnit maps a Table 5 unit to its ns-per-op factor; throughput units
// (KB/s) have no per-op normalization and map to zero.
func nsPerUnit(unit string) float64 {
	switch unit {
	case "µs", "us":
		return 1e3
	case "ms", "ms/msg", "ms/file", "ms/req":
		return 1e6
	default:
		return 0
	}
}

// MeasureTraceEmission times the tracer's per-syscall cost on a private
// ring: ops enter/exit pairs, returning the mean per pair. This is the
// number the paper-style overhead argument rests on, so it is measured,
// not asserted.
func MeasureTraceEmission(ops int) EmissionReport {
	if ops <= 0 {
		ops = 200000
	}
	tr := trace.New(trace.DefaultCapacity)
	for i := 0; i < ops/10+1; i++ { // warm the histogram map and ring
		tr.SyscallExit(tr.SyscallEnter("getpid", 1, 1000), nil)
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		tr.SyscallExit(tr.SyscallEnter("getpid", 1, 1000), nil)
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(ops)
	return EmissionReport{Ops: ops, NsPerOp: ns, Under1us: ns < 1000}
}

// CollectTraceTimings runs the microbenchmark suite once on a fresh
// Protego machine and harvests the kernel tracer: every duration in the
// returned histograms was observed by the trace layer at syscall dispatch
// and LSM hook boundaries, not by the benchmark harness.
func CollectTraceTimings() (syscalls, hooks []HistRow, decisions []DecisionRow, err error) {
	m, err := world.Build(world.Options{Mode: kernel.ModeProtego})
	if err != nil {
		return nil, nil, nil, err
	}
	for _, test := range MicroSuite() {
		if _, err := RunMicro(m, test, rootOnlyTests[test.Name]); err != nil {
			return nil, nil, nil, err
		}
	}
	syscalls, hooks = splitHistograms(m.K.Trace.Histograms())
	decisions = decisionRows(m.K.Trace.Counters())
	return syscalls, hooks, decisions, nil
}

func splitHistograms(all map[string]trace.HistStats) (syscalls, hooks []HistRow) {
	for key, hs := range all {
		row := HistRow{
			Count: hs.Count, MeanNs: hs.MeanNs,
			P50Ns: hs.P50Ns, P95Ns: hs.P95Ns, P99Ns: hs.P99Ns, MaxNs: hs.MaxNs,
		}
		switch {
		case strings.HasPrefix(key, "syscall:"):
			row.Name = strings.TrimPrefix(key, "syscall:")
			syscalls = append(syscalls, row)
		case strings.HasPrefix(key, "lsm:"):
			row.Name = strings.TrimPrefix(key, "lsm:")
			hooks = append(hooks, row)
		}
	}
	sort.Slice(syscalls, func(i, j int) bool { return syscalls[i].Name < syscalls[j].Name })
	sort.Slice(hooks, func(i, j int) bool { return hooks[i].Name < hooks[j].Name })
	return syscalls, hooks
}

func decisionRows(ctrs map[trace.CounterKey]uint64) []DecisionRow {
	rows := make([]DecisionRow, 0, len(ctrs))
	for k, n := range ctrs {
		rows = append(rows, DecisionRow{Hook: k.Hook, Module: k.Module, Decision: k.Decision, Count: n})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Hook != b.Hook {
			return a.Hook < b.Hook
		}
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		return a.Decision < b.Decision
	})
	return rows
}

// BuildReport assembles the full JSON report from already-measured Table 5
// rows plus a fresh emission measurement and trace-derived histograms.
func BuildReport(rows []Row, quick bool) (*Report, error) {
	rep := &Report{Tool: "protego-bench", Quick: quick}
	for _, r := range rows {
		br := BenchRow{
			Name: r.Name, Unit: r.Unit,
			Linux: r.Linux, LinuxCI95: r.LinuxCI,
			Protego: r.Protego, ProtegoCI95: r.ProtegoCI,
			OverheadPct:      r.OverheadPct(),
			PaperOverheadPct: r.PaperOverheadPct,
			HigherIsBetter:   r.HigherIsBetter,
		}
		if f := nsPerUnit(r.Unit); f != 0 {
			br.LinuxNsPerOp = r.Linux * f
			br.ProtegoNsPerOp = r.Protego * f
		}
		rep.Benchmarks = append(rep.Benchmarks, br)
	}
	rep.Emission = MeasureTraceEmission(0)
	fpIters := 0
	if quick {
		fpIters = 200
	}
	fp, err := MeasureFastpath(fpIters)
	if err != nil {
		return nil, err
	}
	rep.Fastpath = fp
	syscalls, hooks, decisions, err := CollectTraceTimings()
	if err != nil {
		return nil, err
	}
	rep.Syscalls, rep.LSMHooks, rep.Decisions = syscalls, hooks, decisions
	iterScale := 1.0
	if quick {
		iterScale = 0.05
	}
	scaling, err := MeasureScaling(DefaultScalingSweep(), iterScale)
	if err != nil {
		return nil, err
	}
	rep.Scaling = scaling
	return rep, nil
}

// ReadReport loads an existing report so a mode that contributes one
// section (e.g. -difffuzz) can update the file without clobbering the
// rest; a missing file yields a fresh empty report.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Report{Tool: "protego-bench"}, nil
	}
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteReport serializes rep to path (conventionally BENCH_protego.json).
func WriteReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
