package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"protego/internal/trace"
)

func TestNsPerUnit(t *testing.T) {
	cases := map[string]float64{
		"us": 1e3, "µs": 1e3, "ms": 1e6, "KB/s": 0, "msgs/min": 0,
	}
	for unit, want := range cases {
		if got := nsPerUnit(unit); got != want {
			t.Errorf("nsPerUnit(%q) = %v, want %v", unit, got, want)
		}
	}
}

// TestMeasureTraceEmission checks what is deterministic about the
// tracer's cost per simulated syscall: one enter/exit pair allocates at
// most once and records exactly its two events. The time itself is the
// benchmark's trace.syscall_pair_ns; a wall-clock bar here failed on
// loaded hosts.
func TestMeasureTraceEmission(t *testing.T) {
	rep := MeasureTraceEmission(5000)
	if rep.Ops != 5000 || rep.NsPerOp <= 0 {
		t.Fatalf("emission report: %+v", rep)
	}
	tr := trace.New(trace.DefaultCapacity)
	pair := func() { tr.SyscallExit(tr.SyscallEnter("getpid", 1, 1000), nil) }
	pair() // creates the syscall's histogram
	if allocs := testing.AllocsPerRun(1000, pair); allocs > 1 {
		t.Errorf("one enter/exit pair allocates %v times, want at most 1", allocs)
	}
	before := tr.Stats()
	pair()
	after := tr.Stats()
	for _, k := range []trace.Kind{trace.KindSyscallEnter, trace.KindSyscallExit} {
		if got := after.ByKind[k.String()] - before.ByKind[k.String()]; got != 1 {
			t.Errorf("one pair recorded %d %s events, want 1", got, k)
		}
	}
	if got := after.Emitted - before.Emitted; got != 2 {
		t.Errorf("one pair put %d events on the ring, want 2", got)
	}
}

func TestSplitHistograms(t *testing.T) {
	tr := trace.New(64)
	tr.SyscallExit(tr.SyscallEnter("open", 1, 2), nil)
	tr.LSMDecision("MountCheck", 1, 2, "grant", "protego", nil, 1000)
	tr.MonitordSync("mounts", 1000, nil)

	syscalls, hooks := splitHistograms(tr.Histograms())
	if len(syscalls) != 1 || syscalls[0].Name != "open" || syscalls[0].Count != 1 {
		t.Fatalf("syscalls = %+v", syscalls)
	}
	if len(hooks) != 1 || hooks[0].Name != "MountCheck" {
		t.Fatalf("hooks = %+v", hooks)
	}
}

func TestWriteReportRoundTrip(t *testing.T) {
	rows := []Row{{Name: "syscall", Unit: "us", Linux: 0.5, Protego: 0.6, PaperOverheadPct: 0}}
	rep := &Report{Tool: "protego-bench"}
	for _, r := range rows {
		br := BenchRow{Name: r.Name, Unit: r.Unit, Linux: r.Linux, Protego: r.Protego, OverheadPct: r.OverheadPct()}
		if f := nsPerUnit(r.Unit); f != 0 {
			br.LinuxNsPerOp = r.Linux * f
			br.ProtegoNsPerOp = r.Protego * f
		}
		rep.Benchmarks = append(rep.Benchmarks, br)
	}
	path := filepath.Join(t.TempDir(), "BENCH_protego.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Benchmarks) != 1 || back.Benchmarks[0].LinuxNsPerOp != 500 {
		t.Fatalf("round trip: %+v", back.Benchmarks)
	}
	if back.Benchmarks[0].OverheadPct < 19.9 || back.Benchmarks[0].OverheadPct > 20.1 {
		t.Fatalf("overhead = %v, want ~20", back.Benchmarks[0].OverheadPct)
	}
}
