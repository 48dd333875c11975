package kernel

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"protego/internal/errno"
	"protego/internal/faultinject"
	"protego/internal/lsm"
	"protego/internal/netfilter"
	"protego/internal/netstack"
	"protego/internal/trace"
	"protego/internal/vfs"
)

// Mode selects which system the kernel models.
type Mode int

// Kernel modes.
const (
	// ModeLinux is the baseline: the setuid bit elevates at exec, the
	// 8 studied syscalls hard-require capabilities, policy lives in
	// trusted userspace binaries.
	ModeLinux Mode = iota
	// ModeProtego is the paper's system: setuid bits are cleared from
	// the studied binaries and the Protego LSM enforces the equivalent
	// policies in the kernel.
	ModeProtego
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeProtego {
		return "protego"
	}
	return "linux"
}

// ParseMode is the inverse of Mode.String: it accepts exactly "linux" or
// "protego".
func ParseMode(name string) (Mode, error) {
	for _, m := range []Mode{ModeLinux, ModeProtego} {
		if name == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want linux or protego)", name)
}

// Program is the entry point of a simulated binary. It runs synchronously
// in the context of the task (exec does not return; the program's return
// value is the process exit code).
type Program func(k *Kernel, t *Task) int

// IoctlHandler implements a device's ioctl surface. granted reports whether
// an LSM granted the (otherwise privileged) operation; base capability
// policy is the handler's responsibility. Like a Program, a handler
// reaches its machine through the task (t.Kernel()), so cloned kernels
// share the registry.
type IoctlHandler func(t *Task, cmd uint32, arg any, granted bool) error

// Kernel ties together the substrates: VFS, network stack, netfilter, the
// LSM chain, the task table, and the binary registry.
//
// Concurrency model (see DESIGN.md): the task table is one map behind
// one reader/writer lock; the binary and device registries are
// copy-on-write snapshots (written only at boot by the world builder,
// read lock-free on every exec and ioctl); nextPID and the namespace flag
// are atomics. There is no global kernel lock, and no lock is ever held
// while calling into another subsystem, so there is no kernel-level lock
// ordering to violate.
type Kernel struct {
	Mode   Mode
	FS     *vfs.FS
	Net    *netstack.Stack
	Filter *netfilter.Table
	LSM    *lsm.Chain
	// Trace is the kernel's observability substrate: every syscall, LSM
	// decision, netfilter verdict, and audit line lands in its ring.
	Trace *trace.Tracer

	// tasksMu guards tasks. Fork and exit write-lock it; Task, Tasks and
	// TaskCount read-lock it.
	tasksMu sync.RWMutex
	tasks   map[int]*Task
	nextPID atomic.Int64
	// gen is the generation of the task table and of the tasks'
	// credentials (see Generation).
	gen atomic.Uint64

	// regMu serializes the (rare, boot-time) registry writers; readers
	// load the current snapshot without any lock.
	regMu    sync.Mutex
	binaries atomic.Pointer[map[string]Program]
	devices  atomic.Pointer[map[string]IoctlHandler]

	// faults is the optional fault-injection layer (nil in normal runs).
	// An atomic pointer so the sweep harness can install/replace it while
	// syscalls are in flight; checks read the snapshot lock-free.
	faults atomic.Pointer[faultinject.Injector]

	// exploitHook is this machine's armed exploit payload (nil in normal
	// runs; see exploit.go). Per-kernel — not a package global — so CVE
	// replays on snapshot clones never serialize or cross-arm. Clones
	// start unarmed.
	exploitHook atomic.Pointer[ExploitFunc]
}

// New creates a kernel in the given mode with an empty file system and a
// network stack at 10.0.0.2, the one host address every image uses. The
// netfilter table is installed as the stack's output filter.
func New(mode Mode) *Kernel {
	k := &Kernel{
		Mode:   mode,
		FS:     vfs.New(),
		Net:    netstack.NewStack(netstack.IPv4(10, 0, 0, 2)),
		Filter: netfilter.NewTable(),
		LSM:    lsm.NewChain(),
		Trace:  trace.New(trace.DefaultCapacity),
		tasks:  make(map[int]*Task),
	}
	emptyBins := make(map[string]Program)
	k.binaries.Store(&emptyBins)
	emptyDevs := make(map[string]IoctlHandler)
	k.devices.Store(&emptyDevs)
	k.Net.SetFilter(k.Filter)
	k.LSM.SetTracer(k.Trace)
	k.Filter.SetTracer(k.Trace)
	k.registerDcacheCounters()
	return k
}

// registerDcacheCounters surfaces the VFS dentry-cache counters as
// fast-path counters in /proc/trace/stats; the FS owns the hot atomics,
// the tracer reads them lazily. Called at construction and again after
// Clone (the clone has its own FS and tracer).
func (k *Kernel) registerDcacheCounters() {
	k.FS.DcacheCounters(k.Trace.RegisterAtomic)
}

// SetFaultInjector installs (or, with nil, removes) the fault-injection
// layer and fans it out to the VFS and the netstack. The injector's trace
// output is routed onto the kernel's ring so injections interleave with
// the syscalls they perturb.
func (k *Kernel) SetFaultInjector(in *faultinject.Injector) {
	in.SetTracer(k.Trace)
	k.faults.Store(in)
	k.FS.SetFaultInjector(in)
	k.Net.SetFaultInjector(in)
}

// FaultInjector returns the installed fault injector, or nil.
func (k *Kernel) FaultInjector() *faultinject.Injector {
	return k.faults.Load()
}

// faultCheck registers a hit at a syscall-entry injection site, returning
// the injected error if one fired. Nil-injector safe and lock-free.
func (k *Kernel) faultCheck(site string) error {
	return k.faults.Load().Check(site)
}

// Auditf records a security-relevant event as a structured KindAudit record
// on the trace ring. Retention is bounded by the ring capacity
// (trace.DefaultCapacity events); older lines are overwritten.
func (k *Kernel) Auditf(format string, args ...any) {
	k.Trace.Audit(fmt.Sprintf(format, args...))
}

// AuditLog returns the retained security-audit lines, oldest first. The log
// is a filtered view of the trace ring, so it holds at most the ring
// capacity's worth of recent events.
func (k *Kernel) AuditLog() []string {
	evs := k.Trace.SnapshotKind(trace.KindAudit)
	out := make([]string, 0, len(evs))
	for _, ev := range evs {
		out = append(out, ev.Msg)
	}
	return out
}

// RegisterBinary installs a program at path in the binary registry. The
// corresponding inode must be created separately (by the world builder) —
// the registry is the simulation's stand-in for the executable's text.
// Registration publishes a fresh copy-on-write snapshot: it is safe while
// execs are in flight, and Exec's LookupBinary never takes a lock.
func (k *Kernel) RegisterBinary(path string, prog Program) {
	clean := vfs.CleanPath(path, "/")
	k.regMu.Lock()
	old := *k.binaries.Load()
	next := make(map[string]Program, len(old)+1)
	for p, fn := range old {
		next[p] = fn
	}
	next[clean] = prog
	k.binaries.Store(&next)
	k.regMu.Unlock()
}

// LookupBinary returns the program registered at path, or nil. Lock-free:
// it reads the current registry snapshot.
func (k *Kernel) LookupBinary(path string) Program {
	return (*k.binaries.Load())[vfs.CleanPath(path, "/")]
}

// RegisterDevices installs ioctl handlers by device path, publishing them
// all in one copy-on-write snapshot like RegisterBinary.
func (k *Kernel) RegisterDevices(handlers map[string]IoctlHandler) {
	k.regMu.Lock()
	old := *k.devices.Load()
	next := make(map[string]IoctlHandler, len(old)+len(handlers))
	for p, fn := range old {
		next[p] = fn
	}
	for p, fn := range handlers {
		next[vfs.CleanPath(p, "/")] = fn
	}
	k.devices.Store(&next)
	k.regMu.Unlock()
}

// lookupDevice returns the ioctl handler for the (already cleaned) device
// path, or nil. Lock-free snapshot read, like LookupBinary.
func (k *Kernel) lookupDevice(clean string) IoctlHandler {
	return (*k.devices.Load())[clean]
}

// InitTask creates the first task (pid 1) running as root with the given
// binary name, cwd /.
func (k *Kernel) InitTask() *Task {
	stdio := new([3]bytes.Buffer) // one allocation for the terminal
	t := &Task{
		k:           k,
		cwd:         "/",
		binary:      "/sbin/init",
		argv:        []string{"/sbin/init"},
		env:         map[string]string{"PATH": "/bin:/sbin:/usr/bin:/usr/sbin"},
		blobs:       make(map[string]any),
		fds:         make(map[int]*FileDesc),
		sigHandlers: make(map[int]func(int)),
		Stdout:      &stdio[0],
		Stderr:      &stdio[1],
		Stdin:       &stdio[2],
	}
	t.creds.Store(RootCreds())
	t.pid = int(k.nextPID.Add(1))
	k.addTask(t)
	return t
}

// Fork clones the calling task: credentials, cwd, environment, security
// blobs, and terminal plumbing are inherited; the file descriptor table is
// copied (descriptors reference the same open files).
func (k *Kernel) Fork(parent *Task) *Task {
	parent.mu.Lock()
	child := &Task{
		k:           k,
		cwd:         parent.cwd,
		binary:      parent.binary,
		argv:        append([]string(nil), parent.argv...),
		env:         copyEnv(parent.env),
		blobs:       copyBlobs(parent.blobs),
		fds:         make(map[int]*FileDesc, len(parent.fds)),
		nextFD:      parent.nextFD,
		sigHandlers: make(map[int]func(int)),
		Stdout:      parent.Stdout,
		Stderr:      parent.Stderr,
		Stdin:       parent.Stdin,
		Asker:       parent.Asker,
	}
	// Descriptors survive fork; CLOEXEC only matters at exec.
	for fd, f := range parent.fds {
		child.fds[fd] = f
	}
	// Credentials and syscall-entry boxes are never written in place, so
	// the child shares the parent's, as fork(2) inherits seccomp filters.
	child.creds.Store(parent.creds.Load())
	child.sysFilter.Store(parent.sysFilter.Load())
	parent.mu.Unlock()

	child.pid = int(k.nextPID.Add(1))
	k.addTask(child)
	return child
}

// addTask enters t in the task table under its pid.
func (k *Kernel) addTask(t *Task) {
	k.tasksMu.Lock()
	k.tasks[t.pid] = t
	k.moved()
	k.tasksMu.Unlock()
}

// Generation returns a counter that only grows, and that every change to
// the task table (fork, exit) or to a task's credentials moves. A caller
// that reads it before reading that state may keep what it derived for as
// long as the generation reads the same.
func (k *Kernel) Generation() uint64 { return k.gen.Load() }

// moved records a change Generation covers, once it is made.
func (k *Kernel) moved() { k.gen.Add(1) }

func copyEnv(env map[string]string) map[string]string {
	out := make(map[string]string, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

func copyBlobs(blobs map[string]any) map[string]any {
	out := make(map[string]any, len(blobs))
	for k, v := range blobs {
		out[k] = v
	}
	return out
}

// Exit terminates the task with the given code and releases its resources.
func (k *Kernel) Exit(t *Task, code int) {
	t.mu.Lock()
	if t.exited {
		t.mu.Unlock()
		return
	}
	t.exited = true
	t.exitCode = code
	t.fds = make(map[int]*FileDesc)
	t.mu.Unlock()
	k.tasksMu.Lock()
	delete(k.tasks, t.pid)
	k.moved()
	k.tasksMu.Unlock()
}

// Task returns the task with the given pid, or nil.
func (k *Kernel) Task(pid int) *Task {
	k.tasksMu.RLock()
	defer k.tasksMu.RUnlock()
	return k.tasks[pid]
}

// Tasks returns a snapshot of all live tasks.
func (k *Kernel) Tasks() []*Task {
	k.tasksMu.RLock()
	defer k.tasksMu.RUnlock()
	out := make([]*Task, 0, len(k.tasks))
	for _, t := range k.tasks {
		out = append(out, t)
	}
	return out
}

// TaskCount returns the number of live tasks.
func (k *Kernel) TaskCount() int {
	k.tasksMu.RLock()
	defer k.tasksMu.RUnlock()
	return len(k.tasks)
}

// Exec replaces the calling task's image with the program at path, applying
// setuid-bit elevation (the baseline's trust mechanism) and any LSM
// credential update (Protego's deferred setuid-on-exec). The program runs
// to completion; its return value is the task's exit code. Exec returns an
// error without running anything if the binary cannot be executed or the
// LSM vetoes (e.g. a delegated transition to a non-whitelisted command,
// which surfaces as EPERM at exec time exactly as described in §4.3).
func (k *Kernel) Exec(t *Task, path string, argv []string, env map[string]string) (code int, err error) {
	// The exit event is emitted when control transfers to the new image,
	// not when the program finishes: the program's own syscalls must not
	// nest inside the exec latency sample.
	tok, perr := k.enter(t, SysExec)
	fail := func(ferr error) (int, error) {
		k.Trace.SyscallExit(tok, ferr)
		return -1, ferr
	}
	if perr != nil {
		return fail(perr)
	}
	clean := vfs.CleanPath(path, t.Cwd())
	creds := t.credsRef()
	ino, err := k.FS.LookupClean(creds, clean)
	if err != nil {
		return fail(err)
	}
	if !ino.Mode.IsRegular() {
		return fail(errno.EACCES)
	}
	if err := vfs.CheckAccess(creds, ino, vfs.MayExec); err != nil {
		return fail(err)
	}
	prog := k.LookupBinary(clean)
	if prog == nil {
		return fail(errno.ENOEXEC)
	}
	if env == nil {
		env = copyEnv(t.Env())
	}
	if len(argv) == 0 {
		// Like the Linux ELF loader, guarantee argv[0]: utilities index
		// t.Argv() unconditionally and an empty vector is a caller bug,
		// not something every program should have to defend against.
		argv = []string{clean}
	}
	req := &lsm.ExecRequest{
		Path:      clean,
		Argv:      argv,
		Env:       env,
		SetuidBit: ino.Mode.IsSetuid(),
		FileUID:   ino.UID,
	}
	update, err := k.LSM.ExecCheck(t, req)
	if err != nil {
		k.Auditf("exec denied: pid=%d uid=%d path=%s: %v", t.PID(), t.UID(), clean, err)
		return fail(err)
	}

	newCreds := creds.Clone()
	if ino.Mode.IsSetuid() {
		// The setuid *bit* (§3.1): the process executes as the
		// binary's owner regardless of who exec-ed it.
		newCreds.EUID = ino.UID
		newCreds.FUID = ino.UID
		newCreds.SUID = ino.UID
		newCreds.recomputeCaps()
	}
	if ino.Mode.IsSetgid() {
		newCreds.EGID = ino.GID
		newCreds.FGID = ino.GID
		newCreds.SGID = ino.GID
	}
	if update != nil {
		if update.UID != nil {
			newCreds.setAllUIDs(*update.UID)
			newCreds.recomputeCaps()
		}
		if update.GID != nil {
			newCreds.setAllGIDs(*update.GID)
		}
		switch {
		case update.Groups != nil:
			newCreds.Groups = append([]int(nil), update.Groups...)
		case update.DropGroups:
			newCreds.Groups = nil
		}
	}

	t.creds.Store(newCreds)
	k.moved()
	t.mu.Lock()
	t.binary = clean
	t.argv = append([]string(nil), argv...)
	t.env = req.Env // possibly filtered by the LSM
	// Close-on-exec descriptors (opened with O_CLOEXEC) are closed, per
	// POSIX.
	for fd, f := range t.fds {
		if f.CloseOnExec {
			delete(t.fds, fd)
		}
	}
	t.mu.Unlock()

	k.Trace.SyscallExit(tok, nil)
	return prog(k, t), nil
}

// SpawnOpts configures Spawn. The zero value runs the child on the
// parent's terminal with the parent's prompt answerer.
type SpawnOpts struct {
	// Capture gives the child fresh stdout/stderr buffers whose contents
	// are returned in SpawnResult instead of reaching the parent's
	// terminal.
	Capture bool
	// Asker, when non-nil, answers the child's password prompts.
	Asker func(string) string
}

// SpawnResult is the outcome of a Spawn: the child's exit code and, when
// SpawnOpts.Capture was set, its terminal output.
type SpawnResult struct {
	Code   int
	Stdout string
	Stderr string
}

// Spawn is the fork+exec+wait convenience used by shells, utilities, and
// tests: it runs path in a child of parent and returns the child's exit
// code plus (with opts.Capture) its captured output.
func (k *Kernel) Spawn(parent *Task, path string, argv []string, env map[string]string, opts SpawnOpts) (SpawnResult, error) {
	child := k.Fork(parent)
	var out, errOut *bytes.Buffer
	if opts.Capture {
		out, errOut = &bytes.Buffer{}, &bytes.Buffer{}
		child.Stdout = out
		child.Stderr = errOut
	}
	if opts.Asker != nil {
		child.Asker = opts.Asker
	}
	code, err := k.Exec(child, path, argv, env)
	k.Exit(child, code)
	res := SpawnResult{Code: code}
	if opts.Capture {
		res.Stdout = out.String()
		res.Stderr = errOut.String()
	}
	return res, err
}

// denyErr converts an LSM deny into a concrete error.
func denyErr(err error, fallback errno.Errno) error {
	if err != nil {
		return err
	}
	return fallback
}
