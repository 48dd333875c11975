package bench

import (
	"fmt"
	"strings"
	"testing"

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
	Binary         string
	LinuxAllowed   int
	LinuxRemoved   int
	ProtegoAllowed int
	ProtegoRemoved int
}

// SeccompReport is the per-binary attack-surface table from the committed
// golden profiles, plus the deterministic gate on what arming seccomp adds
// to the stat and open/close hot paths (see SeccompGate).
type SeccompReport struct {
	Catalog        int
	MachineLinux   int
	MachineProtego int
	Rows           []SeccompRow

	StatGate      SeccompGate
	OpenCloseGate SeccompGate
	// GatePassed is the CI acceptance bit: both ops' gates hold.
	GatePassed bool
}

// SeccompGate checks that arming seccomp adds only the TaskSyscall check
// to an op: the armed op allocates no more than the unarmed one, and each
// armed syscall moves the lsm.syscall.allow counter by exactly one (an
// unarmed one, by zero). Both are counts, so the gate needs no retry.
type SeccompGate struct {
	Calls           int
	SyscallsPerOp   int
	UnarmedAllocs   float64
	ArmedAllocs     float64
	UnarmedAllowed  uint64
	ArmedAllowed    uint64
	WantArmedAllows uint64
	Passed          bool
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

// probePath is the deep file the stat and open/close probes resolve:
// every component is a directory the walk must permission-check.
const probePath = "/usr/share/doc/protego/probe/README"

// probeMachine builds a Protego machine carrying probePath. Armed, every
// task gets a full-catalog seccomp profile, so the gate measures the
// mechanism (gate check, chain walk, bitmask test), not denials.
func probeMachine(armed bool) (*world.Machine, error) {
	m, err := world.Build(world.Options{Mode: kernel.ModeProtego})
	if err != nil {
		return nil, err
	}
	if armed {
		set := seccomp.NewSet(kernel.ModeProtego.String())
		set.Machine = seccomp.FullProfile("")
		set.Add(seccomp.FullProfile("/sbin/init"))
		m.InstallSeccomp(set, false)
	}
	fs := m.K.FS
	if err := fs.MkdirAll(vfs.RootCred, "/usr/share/doc/protego/probe", 0o755, 0, 0); err != nil {
		return nil, err
	}
	if err := fs.WriteFile(vfs.RootCred, probePath, []byte("probe\n"), 0o644, 0, 0); err != nil {
		return nil, err
	}
	return m, nil
}

func statOp(k *kernel.Kernel, t *kernel.Task) error {
	_, err := k.Stat(t, probePath)
	return err
}

func openCloseOp(k *kernel.Kernel, t *kernel.Task) error {
	fd, err := k.Open(t, probePath, kernel.O_RDONLY)
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

// seccompGateCalls is how many calls of each op the gate counts.
const seccompGateCalls = 1000

// MeasureSeccomp builds the seccomp report: the attack-surface table from
// the committed golden profiles and the deterministic gate.
func MeasureSeccomp() (*SeccompReport, error) {
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
	}
	arms := make([]*seccompArm, 2)
	for i, armed := range []bool{false, true} {
		m, err := probeMachine(armed)
		if err != nil {
			return nil, err
		}
		sess, err := m.Session("alice")
		if err != nil {
			return nil, err
		}
		arms[i] = &seccompArm{m: m, sess: sess}
	}
	if rep.StatGate, err = gate(arms[0], arms[1], seccompGateCalls, 1, statOp); err != nil {
		return nil, fmt.Errorf("stat gate: %w", err)
	}
	if rep.OpenCloseGate, err = gate(arms[0], arms[1], seccompGateCalls, 2, openCloseOp); err != nil {
		return nil, fmt.Errorf("open/close gate: %w", err)
	}
	rep.GatePassed = rep.StatGate.Passed && rep.OpenCloseGate.Passed
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
