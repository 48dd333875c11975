package kernel

import (
	"bytes"
	"maps"

	"protego/internal/lsm"
	"protego/internal/trace"
	"protego/internal/vfs"
)

// Clone returns an independent copy of the kernel backed by a
// copy-on-write snapshot of its file system. The FS is frozen (idempotent
// and cheap when already frozen) and shared until first write; the
// netstack and the task table are deep-copied, the tasks sharing their
// immutable credentials, and the netfilter table is copied with its
// immutable rules shared; the clone gets its own tracer and its own empty
// LSM chain. The binary and device registry snapshots are shared —
// programs and ioctl handlers reach their machine through the task, and
// registration is already copy-on-write.
//
// The world layer finishes the job (LSM modules, proc handler rebinding)
// in Snapshot.Clone; a bare Kernel.Clone still runs syscalls, but its
// proc table binds /proc/trace and /proc/protego to the parent's handlers
// until rebound.
func (k *Kernel) Clone() *Kernel {
	k.FS.Freeze()
	c := &Kernel{
		Mode:   k.Mode,
		FS:     k.FS.Clone(),
		Net:    k.Net.Clone(),
		Filter: k.Filter.Clone(),
		LSM:    lsm.NewChain(),
		Trace:  trace.New(trace.DefaultCapacity),
	}
	c.Net.SetFilter(c.Filter)
	c.LSM.SetTracer(c.Trace)
	c.Filter.SetTracer(c.Trace)
	c.registerDcacheCounters()

	c.nextPID.Store(k.nextPID.Load())
	c.binaries.Store(k.binaries.Load())
	c.devices.Store(k.devices.Load())

	// Clone the task table. File descriptions shared between tasks (fork
	// semantics: one offset) stay shared between the cloned tasks, so
	// descriptor identity survives the snapshot.
	fdMap := make(map[*FileDesc]*FileDesc)
	k.tasksMu.RLock()
	c.tasks = make(map[int]*Task, len(k.tasks))
	for pid, t := range k.tasks {
		c.tasks[pid] = t.cloneInto(c, fdMap)
	}
	k.tasksMu.RUnlock()
	return c
}

// cloneInto copies the task onto kernel c: environment, security blobs
// (including a private network namespace, if any), and descriptors are
// private to the clone, which shares the immutable credentials; stdio
// buffers start fresh.
func (t *Task) cloneInto(c *Kernel, fdMap map[*FileDesc]*FileDesc) *Task {
	t.mu.Lock()
	defer t.mu.Unlock()
	stdio := new([3]bytes.Buffer) // one allocation for the terminal
	nt := &Task{
		k:           c,
		pid:         t.pid,
		cwd:         t.cwd,
		binary:      t.binary,
		argv:        append([]string(nil), t.argv...),
		env:         maps.Clone(t.env),
		blobs:       cloneBlobs(t.blobs),
		fds:         make(map[int]*FileDesc, len(t.fds)),
		nextFD:      t.nextFD,
		sigHandlers: maps.Clone(t.sigHandlers),
		Stdout:      &stdio[0],
		Stderr:      &stdio[1],
		Stdin:       &stdio[2],
		Asker:       t.Asker,
		exited:      t.exited,
		exitCode:    t.exitCode,
	}
	for fd, f := range t.fds {
		nf, ok := fdMap[f]
		if !ok {
			f.mu.Lock()
			nf = &FileDesc{Ino: f.Ino, Path: f.Path, Flags: f.Flags, Pos: f.Pos, CloseOnExec: f.CloseOnExec}
			f.mu.Unlock()
			fdMap[f] = nf
		}
		nt.fds[fd] = nf
	}
	// Credentials are never written in place, and the syscall-entry slot
	// carries a profile the clone's re-registered seccomp module shares by
	// reference, so both pointers copy over.
	nt.creds.Store(t.creds.Load())
	nt.sysFilter.Store(t.sysFilter.Load())
	return nt
}

// cloneBlobs copies the security-blob map. Blob values are immutable
// value types except the network namespace, whose private stack must be
// deep-copied so namespace traffic stays inside the clone.
func cloneBlobs(blobs map[string]any) map[string]any {
	if blobs == nil {
		return nil
	}
	out := make(map[string]any, len(blobs))
	for key, v := range blobs {
		if ns, ok := v.(*netNS); ok {
			out[key] = &netNS{stack: ns.stack.Clone(), owner: ns.owner}
			continue
		}
		out[key] = v
	}
	return out
}

// RebindTraceProc points /proc/trace and /proc/trace/stats at this
// kernel's tracer. InstallTraceProc calls it once the files exist, and
// machine cloning after Kernel.Clone — the cloned FS's proc table still
// holds the parent's render closures; RebindProc replaces them in the
// clone's table and leaves the shared inodes as they are.
func (k *Kernel) RebindTraceProc() error {
	if err := k.FS.RebindProc(ProcTrace, func(vfs.Cred) ([]byte, error) {
		return []byte(k.Trace.RenderEvents(0)), nil
	}, nil); err != nil {
		return err
	}
	return k.FS.RebindProc(ProcTraceStats, func(vfs.Cred) ([]byte, error) {
		return []byte(k.Trace.RenderStats()), nil
	}, nil)
}
