package kernel

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"protego/internal/caps"
)

// Task is a simulated process. It implements lsm.Task so security modules
// can interrogate it, and carries the per-task security blobs the Protego
// kernel stores in task_struct (authentication recency, pending
// setuid-on-exec).
type Task struct {
	k *Kernel

	pid int

	// creds is replaced, never written in place (commitCreds), like
	// Linux's copy-on-write struct cred: a reader loads it without a lock.
	creds atomic.Pointer[Credentials]

	mu     sync.Mutex
	cwd    string
	binary string
	argv   []string
	env    map[string]string
	blobs  map[string]any

	// sysFilter is the dedicated syscall-entry slot (lsm.Task's
	// SyscallFilter), read lock-free on every enter() — the analogue of
	// task_struct keeping seccomp state in its own field instead of
	// behind the security pointer. Boxes are immutable once stored, so
	// fork and machine clone inherit by copying the pointer.
	sysFilter atomic.Pointer[sysFilterSlot]

	fds    map[int]*FileDesc
	nextFD int

	sigHandlers map[int]func(sig int)

	// Stdout and Stderr capture program output; Stdin supplies input
	// (password prompts read from here unless an Asker is installed).
	Stdout io.Writer
	Stderr io.Writer
	Stdin  *bytes.Buffer

	// Asker, when set, answers interactive prompts (the simulated
	// terminal). The authentication service uses it to collect
	// passwords.
	Asker func(prompt string) string

	exited   bool
	exitCode int
}

// PID implements lsm.Task.
func (t *Task) PID() int { return t.pid }

// Kernel returns the kernel the task runs on.
func (t *Task) Kernel() *Kernel { return t.k }

// UID implements lsm.Task (real uid).
func (t *Task) UID() int { return t.creds.Load().RUID }

// EUID implements lsm.Task.
func (t *Task) EUID() int { return t.creds.Load().EUID }

// GID implements lsm.Task.
func (t *Task) GID() int { return t.creds.Load().RGID }

// EGID implements lsm.Task.
func (t *Task) EGID() int { return t.creds.Load().EGID }

// Groups implements lsm.Task.
func (t *Task) Groups() []int { return append([]int(nil), t.creds.Load().Groups...) }

// Capable implements lsm.Task.
func (t *Task) Capable(c caps.Cap) bool { return t.creds.Load().Capable(c) }

// BinaryPath implements lsm.Task.
func (t *Task) BinaryPath() string { t.mu.Lock(); defer t.mu.Unlock(); return t.binary }

// SecurityBlob implements lsm.Task.
func (t *Task) SecurityBlob(key string) any {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.blobs[key]
}

// SetSecurityBlob implements lsm.Task.
func (t *Task) SetSecurityBlob(key string, v any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if v == nil {
		delete(t.blobs, key)
		return
	}
	t.blobs[key] = v
}

// sysFilterSlot boxes a SyscallFilter value so an explicitly stored nil
// stays distinguishable from a never-populated slot.
type sysFilterSlot struct{ v any }

// SyscallFilter implements lsm.Task.
func (t *Task) SyscallFilter() (any, bool) {
	if s := t.sysFilter.Load(); s != nil {
		return s.v, true
	}
	return nil, false
}

// SetSyscallFilter implements lsm.Task.
func (t *Task) SetSyscallFilter(v any) { t.sysFilter.Store(&sysFilterSlot{v: v}) }

// Creds returns a snapshot copy of the task's credentials.
func (t *Task) Creds() *Credentials { return t.creds.Load().Clone() }

// credsRef returns the live credentials, which no one may write.
func (t *Task) credsRef() *Credentials { return t.creds.Load() }

// commitCreds replaces the task's credentials with a clone of c that edit
// has changed, as Linux's commit_creds installs a prepared cred: the
// credentials a task holds are never written.
func (t *Task) commitCreds(c *Credentials, edit func(next *Credentials)) {
	next := c.Clone()
	edit(next)
	t.creds.Store(next)
	t.k.moved()
}

// SetUserCreds replaces the task's credentials wholesale. It models a
// privileged login/session setup and is used by the world builder and
// tests; simulated userspace must go through the setuid family instead.
func (t *Task) SetUserCreds(c *Credentials) {
	t.creds.Store(c.Clone())
	t.k.moved()
}

// Cwd returns the task's working directory.
func (t *Task) Cwd() string { t.mu.Lock(); defer t.mu.Unlock(); return t.cwd }

// Env returns the task's environment (live map; exec replaces it).
func (t *Task) Env() map[string]string { t.mu.Lock(); defer t.mu.Unlock(); return t.env }

// Getenv returns the named environment variable.
func (t *Task) Getenv(key string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.env[key]
}

// Setenv sets an environment variable.
func (t *Task) Setenv(key, value string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.env[key] = value
}

// Argv returns the current program arguments.
func (t *Task) Argv() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.argv...)
}

// Exited reports whether the task has exited, and its code.
func (t *Task) Exited() (bool, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exited, t.exitCode
}

// Printf writes formatted output to the task's stdout.
func (t *Task) Printf(format string, args ...any) {
	if t.Stdout != nil {
		fmt.Fprintf(t.Stdout, format, args...)
	}
}

// Errorf writes formatted output to the task's stderr.
func (t *Task) Errorf(format string, args ...any) {
	if t.Stderr != nil {
		fmt.Fprintf(t.Stderr, format, args...)
	}
}

// Ask answers an interactive prompt using the installed Asker, or returns
// the empty string when the task has no terminal.
func (t *Task) Ask(prompt string) string {
	if t.Asker != nil {
		return t.Asker(prompt)
	}
	return ""
}
