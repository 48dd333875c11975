package seccomp

import (
	"sync"

	"protego/internal/kernel"
	"protego/internal/lsm"
)

// Violation is one syscall outside the task's learned profile, recorded
// by an audit-mode module instead of denied.
type Violation struct {
	PID    int
	Binary string
	Sysno  kernel.Sysno
}

// Module enforces a ProfileSet as an LSM module. In audit mode it records
// violations instead of denying — difffuzz runs it that way to assert the
// standing invariant that no utility ever exceeds its learned profile
// without perturbing the trace under test.
//
// A task's active profile lives in its lock-free syscall-filter slot
// (lsm.Task.SyscallFilter). ExecCheck swaps it by binary path; fork and
// machine clone copy the slot, so children keep the parent image's
// allowlist until they exec.
//
// Register it LAST in the chain: its ExecCheck swaps the task's profile
// for the new image, and every module with veto power must have had its
// chance to short-circuit the exec before that swap happens.
type Module struct {
	lsm.Base
	set   *ProfileSet
	audit bool

	mu   sync.Mutex
	viol []Violation
}

// NewModule wraps set in an enforcing (or, with audit, record-only)
// module. The set must not be mutated afterwards.
func NewModule(set *ProfileSet, audit bool) *Module {
	return &Module{set: set, audit: audit}
}

// Name implements lsm.Module.
func (m *Module) Name() string {
	if m.audit {
		return "seccomp-audit"
	}
	return "seccomp"
}

// Set returns the profile set the module enforces.
func (m *Module) Set() *ProfileSet { return m.set }

// Audit reports whether the module records violations instead of denying.
func (m *Module) Audit() bool { return m.audit }

// MediatesSyscall registers the module for the chain's syscall hot path.
func (*Module) MediatesSyscall() {}

// ExecCheck swaps the task's profile for the new image's. An unprofiled
// binary stores nil, so TaskSyscall falls back to the machine-wide union
// rather than inheriting the previous image's allowlist.
func (m *Module) ExecCheck(t lsm.Task, req *lsm.ExecRequest) (*lsm.CredUpdate, error) {
	t.SetSyscallFilter(m.set.For(req.Path))
	return nil, nil
}

// resolve populates a cold task's syscall-filter slot with the profile
// keyed by the task's binary path (covers tasks that never exec-ed since
// the module joined, like init), else nil meaning "unprofiled — machine
// union applies". Profiles are immutable and the binary path only changes
// at exec, where ExecCheck rewrites the slot, so the cached value never
// goes stale.
func (m *Module) resolve(t lsm.Task) *Profile {
	p := m.set.For(t.BinaryPath())
	t.SetSyscallFilter(p)
	return p
}

// TaskSyscall checks the syscall against the task's active profile: the
// filter slot installed at exec (or by a previous resolve), else the
// machine union. Out-of-profile syscalls Deny — surfaced by the kernel's
// enter() prologue as ENOSYS — or are recorded when auditing.
func (m *Module) TaskSyscall(t lsm.Task, sysno int, name string) (lsm.Decision, error) {
	v, populated := t.SyscallFilter()
	if !populated {
		v = m.resolve(t)
	}
	p, _ := v.(*Profile)
	if p == nil {
		p = m.set.Machine
	}
	sn := kernel.Sysno(sysno)
	if p.Allows(sn) {
		return lsm.NoOpinion, nil
	}
	if m.audit {
		m.mu.Lock()
		m.viol = append(m.viol, Violation{PID: t.PID(), Binary: t.BinaryPath(), Sysno: sn})
		m.mu.Unlock()
		return lsm.NoOpinion, nil
	}
	return lsm.Deny, nil
}

// TakeViolations drains the audit log.
func (m *Module) TakeViolations() []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.viol
	m.viol = nil
	return out
}

// Recorder is the learning-mode module: it allows everything and records
// (binary, syscall) pairs into a ProfileSet. One recorder may be shared
// across the many machines a profiling run boots; its mutex serializes
// the set mutation.
type Recorder struct {
	lsm.Base
	mu  sync.Mutex
	set *ProfileSet
}

// NewRecorder returns a recorder accumulating into a fresh set for mode.
func NewRecorder(mode string) *Recorder { return &Recorder{set: NewSet(mode)} }

// Name implements lsm.Module.
func (r *Recorder) Name() string { return "seccomp-record" }

// MediatesSyscall registers the recorder for the chain's syscall hot path.
func (*Recorder) MediatesSyscall() {}

// TaskSyscall records the observation and never objects.
func (r *Recorder) TaskSyscall(t lsm.Task, sysno int, name string) (lsm.Decision, error) {
	r.mu.Lock()
	r.set.Observe(t.BinaryPath(), kernel.Sysno(sysno))
	r.mu.Unlock()
	return lsm.NoOpinion, nil
}

// Set returns the profiles recorded so far.
func (r *Recorder) Set() *ProfileSet { return r.set }
