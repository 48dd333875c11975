package world

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"protego/internal/core"
	"protego/internal/kernel"
	"protego/internal/vfs"
)

// evilRow is an fstab row that makes /etc user-mountable.
const evilRow = "/dev/evil /etc ext4 rw,user 0 0\n"

// TestCloneProcDescriptors: a /proc descriptor the parent opened before
// the snapshot reaches, in the clone, the clone's own handlers. A write
// through it changes the clone's whitelist and not the parent's, and a
// read through it renders the clone's policy and the clone's tracer, in
// both images.
func TestCloneProcDescriptors(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		t.Run(mode.String(), func(t *testing.T) {
			parent, err := Build(Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			root := session(t, parent, "root")
			open := func(path string, flags int) int {
				fd, err := parent.K.Open(root, path, flags)
				if err != nil {
					t.Fatalf("open %s: %v", path, err)
				}
				return fd
			}
			traceFD := open(kernel.ProcTrace, kernel.O_RDONLY)
			statsFD := open(kernel.ProcTraceStats, kernel.O_RDONLY)
			mountsFD := -1
			if mode == kernel.ModeProtego {
				mountsFD = open(core.ProcMounts, kernel.O_RDWR)
			}
			for range 100 { // events the clone's tracer never sees
				parent.K.Getpid(root)
			}
			clone, err := parent.Snapshot().Clone()
			if err != nil {
				t.Fatal(err)
			}
			croot := clone.K.Task(root.PID())
			read := func(fd int) string {
				data, err := clone.K.Read(croot, fd, 1<<20)
				if err != nil {
					t.Fatalf("read fd %d: %v", fd, err)
				}
				return string(data)
			}

			// The clone's tracer has seen only these reads, the parent's
			// more than 200 events.
			events := read(traceFD)
			stats := read(statsFD)
			emitted := clone.K.Trace.Stats().Emitted
			if n := uint64(strings.Count(events, "\n")); n > emitted {
				t.Errorf("/proc/trace through the inherited descriptor lists %d events, the clone's tracer emitted %d", n, emitted)
			}
			if n := statsEmitted(t, stats); n > emitted {
				t.Errorf("/proc/trace/stats through the inherited descriptor reads emitted=%d, the clone's tracer emitted %d", n, emitted)
			}
			if mode != kernel.ModeProtego {
				return
			}

			parentRules := parent.Protego.MountRules()
			if _, err := clone.K.Write(croot, mountsFD, []byte(evilRow)); err != nil {
				t.Fatalf("write through the inherited descriptor: %v", err)
			}
			if got := clone.Protego.MountRules(); len(got) != 1 || got[0].Device != "/dev/evil" {
				t.Errorf("clone whitelist %v, want the one /dev/evil row", got)
			}
			if got := parent.Protego.MountRules(); fmt.Sprint(got) != fmt.Sprint(parentRules) {
				t.Errorf("parent whitelist %v, want %v: a clone's descriptor wrote the parent's policy", got, parentRules)
			}
			want, err := clone.K.FS.ReadFile(vfs.RootCred, core.ProcMounts)
			if err != nil {
				t.Fatal(err)
			}
			if got := read(mountsFD); got != string(want) {
				t.Errorf("read through the inherited descriptor %q, the clone's policy reads %q", got, want)
			}
		})
	}
}

// statsEmitted parses the emitted count off /proc/trace/stats's first
// line.
func statsEmitted(t *testing.T, stats string) uint64 {
	t.Helper()
	_, rest, ok := strings.Cut(stats, "emitted=")
	field, _, _ := strings.Cut(rest, " ")
	n, err := strconv.ParseUint(field, 10, 64)
	if !ok || err != nil {
		t.Fatalf("no emitted count in %q", stats)
	}
	return n
}

// TestCloneSharesUntouchedInodes: binding the clone's /proc handlers
// copies nothing up, so right after Clone the root and the /proc
// directories are still the golden image's sealed inodes.
func TestCloneSharesUntouchedInodes(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		t.Run(mode.String(), func(t *testing.T) {
			snap, err := Golden(mode)
			if err != nil {
				t.Fatal(err)
			}
			m, err := snap.Clone()
			if err != nil {
				t.Fatal(err)
			}
			paths := []string{"/", "/proc", kernel.ProcTrace}
			if mode == kernel.ModeProtego {
				paths = append(paths, core.ProcDir)
			}
			for _, p := range paths {
				want, err := snap.src.K.FS.Lookup(vfs.RootCred, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.K.FS.Lookup(vfs.RootCred, p)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || !got.Sealed() {
					t.Errorf("%s: the clone holds a private copy (sealed %v), not the image's inode", p, got.Sealed())
				}
			}
		})
	}
}

// TestCloneProcConcurrent races 8 clones of one snapshot against their
// parent (run it with -race -count=10): each machine writes its own
// /proc/protego/mounts, by path and through a descriptor the parent
// opened before the snapshot, and reads it and /proc/trace/stats back.
// Every machine ends with its own last write. The parent also writes a
// regular file through a descriptor, moving its offset and inode while
// each clone copies the description.
func TestCloneProcConcurrent(t *testing.T) {
	const clones, rounds = 8, 20
	parent, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	root := session(t, parent, "root")
	fd, err := parent.K.Open(root, core.ProcMounts, kernel.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	logFD, err := parent.K.Open(root, "/tmp/clone-race", kernel.O_WRONLY|kernel.O_CREAT)
	if err != nil {
		t.Fatal(err)
	}
	snap := parent.Snapshot()
	point := func(id, r int) string { return fmt.Sprintf("/media/m%d-%d", id, r) }
	// work writes and reads id's policy on m, as its root task, rounds
	// times; id -1 is the parent.
	work := func(id int, m *Machine) error {
		task := m.K.Task(root.PID())
		for r := range rounds {
			row := []byte("/dev/sdz1 " + point(id, r) + " vfat rw,user 0 0\n")
			var err error
			if r%2 == 0 {
				err = m.K.WriteFile(task, core.ProcMounts, row)
			} else {
				_, err = m.K.Write(task, fd, row)
			}
			if err != nil {
				return fmt.Errorf("round %d: write: %w", r, err)
			}
			if m == parent {
				if _, err := m.K.Write(task, logFD, row); err != nil {
					return fmt.Errorf("round %d: write the regular file: %w", r, err)
				}
			}
			for _, path := range []string{core.ProcMounts, kernel.ProcTraceStats} {
				if _, err := m.K.ReadFile(task, path); err != nil {
					return fmt.Errorf("round %d: read %s: %w", r, path, err)
				}
			}
		}
		return nil
	}
	machines := make([]*Machine, clones)
	var wg sync.WaitGroup
	for id := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := snap.Clone()
			if err != nil {
				t.Error(err)
				return
			}
			machines[id] = m
			if err := work(id, m); err != nil {
				t.Errorf("clone %d: %v", id, err)
			}
		}()
	}
	if err := work(-1, parent); err != nil {
		t.Errorf("parent: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for id, m := range append(machines, parent) {
		if id == clones {
			id = -1
		}
		if got := m.Protego.MountRules(); len(got) != 1 || got[0].MountPoint != point(id, rounds-1) {
			t.Errorf("machine %d ends with %v, want its own last row at %s", id, got, point(id, rounds-1))
		}
	}
}

// TestProcPolicyReadBackRoundTrips: on a golden Protego clone, each
// /proc/protego policy file accepts the text it reads back, and the write
// changes neither that text, nor the policy the module parsed, nor
// /proc/protego/status. A row with a policy writes it first; the
// delegation row's uses every part of the grammar the parser reads.
func TestProcPolicyReadBackRoundTrips(t *testing.T) {
	snap, err := Golden(kernel.ModeProtego)
	if err != nil {
		t.Fatal(err)
	}
	m, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) string {
		data, err := m.K.FS.ReadFile(vfs.RootCred, path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(data)
	}
	parsed := func() []any {
		return []any{m.Protego.MountRules(), m.Protego.BindAllocations(), m.Protego.Sudoers()}
	}
	for _, c := range []struct{ path, policy string }{
		{core.ProcMounts, ""},
		{core.ProcBind, ""},
		{core.ProcDelegation, ""},
		{core.ProcPPP, ""},
		{core.ProcDelegation, "Defaults timestamp_timeout = 10\n" +
			"Defaults env_keep += \"EDITOR\"\n" +
			"Cmnd_Alias VIEW = /bin/ls, /usr/bin/id\n" +
			"User_Alias OPS = alice, bob\n" +
			"OPS ALL = (root) SETENV: VIEW\n"},
	} {
		t.Run(c.path, func(t *testing.T) {
			if c.policy != "" {
				if err := m.K.FS.WriteFile(vfs.RootCred, c.path, []byte(c.policy), 0o600, 0, 0); err != nil {
					t.Fatalf("writing %q: %v", c.policy, err)
				}
			}
			text, status, before := read(c.path), read(core.ProcStatus), parsed()
			if err := m.K.FS.WriteFile(vfs.RootCred, c.path, []byte(text), 0o600, 0, 0); err != nil {
				t.Fatalf("writing back %q: %v", text, err)
			}
			if got := read(c.path); got != text {
				t.Errorf("read back %q after writing back %q", got, text)
			}
			if got := parsed(); !reflect.DeepEqual(got, before) {
				t.Errorf("writing back %q changed the parsed policy", text)
			}
			if got := read(core.ProcStatus); got != status {
				t.Errorf("status %q after the write, %q before", got, status)
			}
		})
	}
}
