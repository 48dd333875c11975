package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"protego/internal/kernel"
	"protego/internal/seccomp"
	"protego/internal/seccomp/profiles"
	"protego/internal/vfs"
	"protego/internal/world"
)

// SeccompRow is one binary's attack-surface reduction, KASR-style: how
// many of the catalog's syscalls the learned profile leaves reachable on
// each image, and how many enforcement removes. Allowed is -1 when the
// binary is not part of that image.
type SeccompRow struct {
	Binary         string `json:"binary"`
	LinuxAllowed   int    `json:"linux_allowed"`
	LinuxRemoved   int    `json:"linux_removed"`
	ProtegoAllowed int    `json:"protego_allowed"`
	ProtegoRemoved int    `json:"protego_removed"`
}

// SeccompReport is the `seccomp` section of BENCH_protego.json: the
// per-binary attack-surface table from the committed golden profiles plus
// the cost of the syscall-entry prologue (gate armed with a full-catalog
// profile vs unarmed) on the stat and open/close hot loops. The times are
// reported, not judged: the acceptance gate is deterministic (see
// SeccompGate).
type SeccompReport struct {
	Catalog        int          `json:"catalog_syscalls"`
	MachineLinux   int          `json:"machine_allowed_linux"`
	MachineProtego int          `json:"machine_allowed_protego"`
	Rows           []SeccompRow `json:"binaries"`

	Iters                int     `json:"iters"`
	StatUnarmedNsPerOp   float64 `json:"stat_unarmed_ns_per_op"`
	StatArmedNsPerOp     float64 `json:"stat_armed_ns_per_op"`
	StatOverheadPct      float64 `json:"stat_overhead_pct"`
	OpenUnarmedNsPerOp   float64 `json:"open_close_unarmed_ns_per_op"`
	OpenArmedNsPerOp     float64 `json:"open_close_armed_ns_per_op"`
	OpenCloseOverheadPct float64 `json:"open_close_overhead_pct"`

	StatGate      SeccompGate `json:"stat_gate"`
	OpenCloseGate SeccompGate `json:"open_close_gate"`
	// GatePassed is the CI acceptance bit: both ops' gates hold.
	GatePassed bool `json:"gate_passed"`
}

// SeccompGate checks that arming seccomp adds only the TaskSyscall check
// to an op: the armed op allocates no more than the unarmed one, and each
// armed syscall moves the lsm.syscall.allow counter by exactly one (an
// unarmed one, by zero). Both are counts, so the gate needs no retry.
type SeccompGate struct {
	Calls           int     `json:"calls"`
	SyscallsPerOp   int     `json:"syscalls_per_op"`
	UnarmedAllocs   float64 `json:"unarmed_allocs_per_op"`
	ArmedAllocs     float64 `json:"armed_allocs_per_op"`
	UnarmedAllowed  uint64  `json:"unarmed_allow_delta"`
	ArmedAllowed    uint64  `json:"armed_allow_delta"`
	WantArmedAllows uint64  `json:"want_armed_allow_delta"`
	Passed          bool    `json:"passed"`
}

// attackSurfaceRows tabulates both images' learned profiles over the
// union of their binaries.
func attackSurfaceRows(lin, pro *seccomp.ProfileSet) []SeccompRow {
	catalog := kernel.NumSysno - 1
	names := map[string]bool{}
	for _, b := range lin.Binaries() {
		names[b] = true
	}
	for _, b := range pro.Binaries() {
		names[b] = true
	}
	rows := make([]SeccompRow, 0, len(names))
	count := func(s *seccomp.ProfileSet, b string) (allowed, removed int) {
		p := s.For(b)
		if p == nil {
			return -1, -1
		}
		return p.Len(), catalog - p.Len()
	}
	// Binaries() is sorted, so walking the union through a second sorted
	// pass keeps the table deterministic.
	ordered := make([]string, 0, len(names))
	for _, b := range lin.Binaries() {
		ordered = append(ordered, b)
	}
	for _, b := range pro.Binaries() {
		if lin.For(b) == nil {
			ordered = append(ordered, b)
		}
	}
	for _, b := range ordered {
		row := SeccompRow{Binary: b}
		row.LinuxAllowed, row.LinuxRemoved = count(lin, b)
		row.ProtegoAllowed, row.ProtegoRemoved = count(pro, b)
		rows = append(rows, row)
	}
	return rows
}

// seccompProbePath is the deep path the overhead loops resolve; like the
// fastpath bench, every component is a directory the walk must check, so
// the prologue's cost is measured against a realistic syscall body.
const seccompProbePath = "/usr/share/doc/protego/seccomp/README"

func buildSeccompMachine(armed bool) (*world.Machine, error) {
	opts := world.Options{Mode: kernel.ModeProtego}
	if armed {
		// A full-catalog profile for every task: the loop measures the
		// mechanism (gate load, chain walk, bitmask test), not denials.
		set := seccomp.NewSet(kernel.ModeProtego.String())
		set.Machine = seccomp.FullProfile("")
		set.Add(seccomp.FullProfile("/sbin/init"))
		opts.SeccompProfiles = set
	}
	m, err := world.Build(opts)
	if err != nil {
		return nil, err
	}
	fs := m.K.FS
	if err := fs.MkdirAll(vfs.RootCred, "/usr/share/doc/protego/seccomp", 0o755, 0, 0); err != nil {
		return nil, err
	}
	if err := fs.WriteFile(vfs.RootCred, seccompProbePath, []byte("seccomp probe\n"), 0o644, 0, 0); err != nil {
		return nil, err
	}
	return m, nil
}

func statOp(k *kernel.Kernel, t *kernel.Task) error {
	_, err := k.Stat(t, seccompProbePath)
	return err
}

func openCloseOp(k *kernel.Kernel, t *kernel.Task) error {
	fd, err := k.Open(t, seccompProbePath, kernel.O_RDONLY)
	if err != nil {
		return err
	}
	return k.CloseFD(t, fd)
}

// seccompArm is one measurement subject: a machine plus its session.
type seccompArm struct {
	m    *world.Machine
	sess *kernel.Task
}

// allowed reads the arm's lsm.syscall.allow counter: TaskSyscall
// evaluations where every module had no opinion.
func (a *seccompArm) allowed() uint64 {
	return a.m.K.Trace.FastpathCounters()["lsm.syscall.allow"]
}

// gate runs op calls times on each arm, counting allocations and
// lsm.syscall.allow moves; syscalls is the number of syscalls in one op.
func gate(plain, armed *seccompArm, calls, syscalls int, op func(k *kernel.Kernel, t *kernel.Task) error) (SeccompGate, error) {
	g := SeccompGate{Calls: calls, SyscallsPerOp: syscalls}
	for _, a := range []*seccompArm{plain, armed} {
		before := a.allowed()
		var opErr error
		// AllocsPerRun makes one extra, warm-up call.
		allocs := testing.AllocsPerRun(calls-1, func() {
			if err := op(a.m.K, a.sess); err != nil {
				opErr = err
			}
		})
		if opErr != nil {
			return g, opErr
		}
		if a == plain {
			g.UnarmedAllocs, g.UnarmedAllowed = allocs, a.allowed()-before
		} else {
			g.ArmedAllocs, g.ArmedAllowed = allocs, a.allowed()-before
		}
	}
	g.WantArmedAllows = uint64(calls * syscalls)
	g.Passed = g.ArmedAllocs <= g.UnarmedAllocs && g.UnarmedAllowed == 0 && g.ArmedAllowed == g.WantArmedAllows
	return g, nil
}

// timed runs one measured chunk of op over n calls.
func (a *seccompArm) timed(n int, op func(k *kernel.Kernel, t *kernel.Task) error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(a.m.K, a.sess); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// seccompChunks splits each repetition of the overhead measurement into
// alternating plain/armed slices. The gate judges a few-percent delta, so
// the two arms must sample the same load window: coarse phase-separated
// loops resonate with anything periodic (GC cycles, cgroup throttle
// slices) and can pin the whole disturbance onto one arm in every
// repetition, which best-of cannot wash out.
const seccompChunks = 20

// measureOpPair times op on both arms. Within a repetition the arms
// alternate in small chunks — and alternate which arm goes first — so a
// disturbance lands on both or neither. The repetition with the median
// armed-over-plain delta is reported: the gate judges the delta, and a
// median over repetitions survives disturbance episodes that best-of-arm
// minima (each free to come from a different repetition) do not.
func measureOpPair(plain, armed *seccompArm, iters int, op func(k *kernel.Kernel, t *kernel.Task) error) (plainNs, armedNs float64, err error) {
	chunk := iters / seccompChunks
	if chunk == 0 {
		chunk = 1
	}
	total := chunk * seccompChunks
	type repSample struct{ plain, armed float64 }
	reps := make([]repSample, 0, microReps)
	for r := 0; r < microReps; r++ {
		var plainTot, armedTot time.Duration
		for c := 0; c < seccompChunks; c++ {
			pair := [2]*seccompArm{plain, armed}
			if c%2 == 1 {
				pair[0], pair[1] = armed, plain
			}
			for _, a := range pair {
				d, err := a.timed(chunk, op)
				if err != nil {
					return 0, 0, err
				}
				if a == plain {
					plainTot += d
				} else {
					armedTot += d
				}
			}
		}
		reps = append(reps, repSample{
			plain: float64(plainTot.Nanoseconds()) / float64(total),
			armed: float64(armedTot.Nanoseconds()) / float64(total),
		})
	}
	sort.Slice(reps, func(i, j int) bool {
		return reps[i].armed-reps[i].plain < reps[j].armed-reps[j].plain
	})
	mid := reps[len(reps)/2]
	return mid.plain, mid.armed, nil
}

// measureSeccompOverhead times the stat and open/close loops on an
// unarmed and an armed machine and fills in the armed-over-unarmed
// percentages.
func measureSeccompOverhead(rep *SeccompReport, iters int) error {
	arms := make([]*seccompArm, 2)
	for i, withProfiles := range []bool{false, true} {
		m, err := buildSeccompMachine(withProfiles)
		if err != nil {
			return err
		}
		sess, err := m.Session("alice")
		if err != nil {
			return err
		}
		arms[i] = &seccompArm{m: m, sess: sess}
	}
	plain, armed := arms[0], arms[1]

	for _, op := range []func(k *kernel.Kernel, t *kernel.Task) error{statOp, openCloseOp} {
		for _, a := range arms { // warm dcache, sessions, and filter slots
			if _, err := a.timed(iters/10+1, op); err != nil {
				return fmt.Errorf("seccomp warm-up: %w", err)
			}
		}
	}
	var err error
	if rep.StatUnarmedNsPerOp, rep.StatArmedNsPerOp, err = measureOpPair(plain, armed, iters, statOp); err != nil {
		return fmt.Errorf("stat loop: %w", err)
	}
	if rep.OpenUnarmedNsPerOp, rep.OpenArmedNsPerOp, err = measureOpPair(plain, armed, iters, openCloseOp); err != nil {
		return fmt.Errorf("open/close loop: %w", err)
	}
	if rep.StatUnarmedNsPerOp > 0 {
		rep.StatOverheadPct = (rep.StatArmedNsPerOp - rep.StatUnarmedNsPerOp) / rep.StatUnarmedNsPerOp * 100
	}
	if rep.OpenUnarmedNsPerOp > 0 {
		rep.OpenCloseOverheadPct = (rep.OpenArmedNsPerOp - rep.OpenUnarmedNsPerOp) / rep.OpenUnarmedNsPerOp * 100
	}
	if rep.StatGate, err = gate(plain, armed, seccompGateCalls, 1, statOp); err != nil {
		return fmt.Errorf("stat gate: %w", err)
	}
	if rep.OpenCloseGate, err = gate(plain, armed, seccompGateCalls, 2, openCloseOp); err != nil {
		return fmt.Errorf("open/close gate: %w", err)
	}
	rep.GatePassed = rep.StatGate.Passed && rep.OpenCloseGate.Passed
	return nil
}

// seccompGateCalls is how many calls of each op the gate counts.
const seccompGateCalls = 1000

// MeasureSeccomp builds the seccomp report: the attack-surface table from
// the committed golden profiles, the measured prologue overhead, and the
// deterministic gate.
func MeasureSeccomp(iters int) (*SeccompReport, error) {
	if iters <= 0 {
		iters = 20000
	}
	lin, err := profiles.Load(kernel.ModeLinux)
	if err != nil {
		return nil, err
	}
	pro, err := profiles.Load(kernel.ModeProtego)
	if err != nil {
		return nil, err
	}
	rep := &SeccompReport{
		Catalog:        kernel.NumSysno - 1,
		MachineLinux:   lin.Machine.Len(),
		MachineProtego: pro.Machine.Len(),
		Rows:           attackSurfaceRows(lin, pro),
		Iters:          iters,
	}
	if err := measureSeccompOverhead(rep, iters); err != nil {
		return nil, err
	}
	return rep, nil
}

// FormatSeccomp renders the report for the protego-bench -seccomp mode.
func FormatSeccomp(r *SeccompReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Syscall allowlists (trace-derived, %d-syscall catalog)\n", r.Catalog)
	fmt.Fprintf(&b, "  machine union: linux %d allowed (%d removed), protego %d allowed (%d removed)\n",
		r.MachineLinux, r.Catalog-r.MachineLinux, r.MachineProtego, r.Catalog-r.MachineProtego)
	fmt.Fprintf(&b, "  %-36s %16s %16s\n", "binary", "linux kept/cut", "protego kept/cut")
	cell := func(allowed, removed int) string {
		if allowed < 0 {
			return "n/a"
		}
		return fmt.Sprintf("%d/%d", allowed, removed)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-36s %16s %16s\n", row.Binary,
			cell(row.LinuxAllowed, row.LinuxRemoved),
			cell(row.ProtegoAllowed, row.ProtegoRemoved))
	}
	fmt.Fprintf(&b, "  enter() prologue overhead (%d iters, armed full-profile vs unarmed):\n", r.Iters)
	fmt.Fprintf(&b, "    stat:       %.1f -> %.1f ns/op (%+.2f%%)\n",
		r.StatUnarmedNsPerOp, r.StatArmedNsPerOp, r.StatOverheadPct)
	fmt.Fprintf(&b, "    open/close: %.1f -> %.1f ns/op (%+.2f%%)\n",
		r.OpenUnarmedNsPerOp, r.OpenArmedNsPerOp, r.OpenCloseOverheadPct)
	fmt.Fprintf(&b, "  gate (armed allocs <= unarmed; lsm.syscall.allow +1 per armed syscall, +0 unarmed):\n")
	for _, g := range []struct {
		name string
		g    SeccompGate
	}{{"stat", r.StatGate}, {"open/close", r.OpenCloseGate}} {
		fmt.Fprintf(&b, "    %-11s allocs/op %.0f -> %.0f, allow %d unarmed, %d armed of %d: %s\n",
			g.name+":", g.g.UnarmedAllocs, g.g.ArmedAllocs, g.g.UnarmedAllowed, g.g.ArmedAllowed,
			g.g.WantArmedAllows, passFail(g.g.Passed))
	}
	return b.String()
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
