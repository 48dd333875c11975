package kernel

import (
	"protego/internal/trace"
	"protego/internal/vfs"
)

// The tracer keeps one histogram slot per syscall number; the catalog
// must fit in its table.
const _ = uint(trace.MaxSyscalls - NumSysno)

// sysSyms are the catalog's trace names as trace symbols, resolved once,
// so an event names its syscall without a lookup.
var sysSyms = func() (syms [sysnoCount]trace.Sym) {
	for sn := range syms {
		syms[sn] = trace.Intern(Sysno(sn).String())
	}
	return syms
}()

// sysEnter begins tracing one syscall invocation on behalf of t, tolerating
// a nil or kernel-less task (events are then tagged pid=0 uid=-1). The
// returned token must be handed to Trace.SyscallExit on the return path.
func (k *Kernel) sysEnter(sn Sysno, t *Task) trace.SyscallToken {
	pid, uid := 0, -1
	if t != nil {
		pid, uid = t.PID(), t.UID()
	}
	return k.Trace.SyscallEnterNo(int(sn), sysSyms[sn], pid, uid)
}

// Trace proc paths.
const (
	// ProcTrace renders the retained trace events when read (the directory
	// doubles as a synthetic file, like /proc/self on Linux doubles as a
	// symlink).
	ProcTrace = "/proc/trace"
	// ProcTraceStats renders ring occupancy, latency histograms, and
	// decision counters.
	ProcTraceStats = ProcTrace + "/stats"
)

// InstallTraceProc exposes the tracer read-only under /proc: reading
// /proc/trace returns the event log, /proc/trace/stats the aggregate view.
// It makes the two files and binds them through RebindTraceProc, the one
// place that builds their render closures. /proc must already exist (the
// world builder creates it in both modes so the observability surface
// never skews a mode comparison).
func (k *Kernel) InstallTraceProc() error {
	if err := k.FS.MkdirAll(vfs.RootCred, ProcTrace, 0o555, 0, 0); err != nil {
		return err
	}
	if _, err := k.FS.CreateProc(ProcTraceStats, 0o444, nil, nil); err != nil {
		return err
	}
	return k.RebindTraceProc()
}
