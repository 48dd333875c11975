package world

import (
	"strings"
	"sync"
	"testing"

	"protego/internal/core"
	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/vfs"
)

// TestConcurrentKernelStress is the -race concurrency stress test: N
// worker goroutines each run a session loop of fork/exec/exit (a real
// /bin/ls spawn), dcache-hit stats, and pid lookups, while a reloader
// goroutine hammers monitord policy resyncs (mounts + delegation) the
// whole time. Afterwards the task table must have lost no tasks and the
// tracer's counters must be internally consistent.
func TestConcurrentKernelStress(t *testing.T) {
	const (
		workers = 8
		iters   = 30
	)
	m, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.FS.MkdirAll(vfs.RootCred, "/stress/deep/path", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.K.FS.WriteFile(vfs.RootCred, "/stress/deep/path/probe", []byte("x\n"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}

	baseline := m.K.TaskCount()

	stop := make(chan struct{})
	var reloads sync.WaitGroup
	reloads.Add(1)
	go func() {
		defer reloads.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Monitor.SyncMounts(); err != nil {
				t.Errorf("SyncMounts: %v", err)
				return
			}
			if err := m.Monitor.SyncDelegation(); err != nil {
				t.Errorf("SyncDelegation: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := m.Session("alice")
			if err != nil {
				t.Errorf("session: %v", err)
				return
			}
			defer m.K.Exit(sess, 0)
			for i := 0; i < iters; i++ {
				// Dcache-hit stats on a shared deep path.
				if _, err := m.K.Stat(sess, "/stress/deep/path/probe"); err != nil {
					t.Errorf("stat: %v", err)
					return
				}
				// fork/exec/exit of a real binary.
				code, _, stderr, err := m.Run(sess, []string{userspace.BinLs, "/"}, nil)
				if err != nil || code != 0 {
					t.Errorf("ls: code=%d err=%v stderr=%q", code, err, stderr)
					return
				}
				// Shard-read lookups against live churn.
				if got := m.K.Task(sess.PID()); got != sess {
					t.Errorf("Task(%d) lost the session task", sess.PID())
					return
				}
				m.K.Tasks()
			}
		}()
	}
	wg.Wait()
	close(stop)
	reloads.Wait()
	if t.Failed() {
		return
	}

	// No lost tasks: every spawned child exited, every session exited.
	if got := m.K.TaskCount(); got != baseline {
		t.Fatalf("task count after stress = %d, want %d (lost or leaked tasks)", got, baseline)
	}

	// Tracer consistency: per-kind emission counts must sum to the ring
	// total, the stat syscall histogram must have seen at least every
	// explicit stat, and the /proc/trace/stats render the counters feed
	// must be readable from inside the simulation.
	st := m.K.Trace.Stats()
	var byKind uint64
	for _, n := range st.ByKind {
		byKind += n
	}
	if byKind != st.Emitted {
		t.Fatalf("per-kind emissions sum to %d, ring emitted %d", byKind, st.Emitted)
	}
	if h := m.K.Trace.Histograms()["syscall:stat"]; h.Count < workers*iters {
		t.Fatalf("stat histogram count = %d, want >= %d", h.Count, workers*iters)
	}
	root, err := m.Session("root")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.K.ReadFile(root, kernel.ProcTraceStats)
	if err != nil {
		t.Fatalf("read %s: %v", kernel.ProcTraceStats, err)
	}
	if len(stats) == 0 {
		t.Fatal("empty /proc/trace/stats after stress")
	}
}

// TestPolicyReloadConcurrent races policy reloads against their users
// (run it with -race -count=10). A writer flips /etc/fstab and /etc/bind
// between two contents and syncs after each write, while alice mounts and
// unmounts /mnt/backup, the row the flip makes user-mountable and back,
// and a reader reads /proc/protego/mounts and /proc/protego/bind. Each
// /proc writer swaps its policy whole, so every outcome is the one of
// either content; once the writer stops, the policy is the final files'.
func TestPolicyReloadConcurrent(t *testing.T) {
	const rounds = 100
	img, err := Golden(kernel.ModeProtego)
	if err != nil {
		t.Fatal(err)
	}
	m, err := img.Clone()
	if err != nil {
		t.Fatal(err)
	}
	userRow := strings.Replace(fstabContent, "ext4     rw  ", "ext4     rw,user", 1)
	if userRow == fstabContent {
		t.Fatal("the image's /mnt/backup row moved")
	}
	fstab := [2]string{fstabContent, userRow}
	bind := [2]string{bindContent, bindContent + "587 tcp /usr/sbin/exim4 Debian-exim\n"}
	apply := func(i int) error {
		if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/fstab", []byte(fstab[i]), 0o644, 0, 0); err != nil {
			return err
		}
		if err := m.Monitor.SyncMounts(); err != nil {
			return err
		}
		if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/bind", []byte(bind[i]), 0o644, 0, 0); err != nil {
			return err
		}
		return m.Monitor.SyncBind()
	}
	read := func(path string) string {
		data, err := m.K.FS.ReadFile(vfs.RootCred, path)
		if err != nil {
			t.Errorf("read %s: %v", path, err)
		}
		return string(data)
	}
	// The policy each content installs, as /proc reads it back.
	var mounts, binds [2]string
	for i := range 2 {
		if err := apply(i); err != nil {
			t.Fatal(err)
		}
		mounts[i], binds[i] = read(core.ProcMounts), read(core.ProcBind)
	}
	if mounts[0] == mounts[1] || binds[0] == binds[1] {
		t.Fatal("the two contents install the same policy")
	}
	alice, root := session(t, m, "alice"), session(t, m, "root")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer close(stop)
		for r := range rounds {
			if err := apply(r % 2); err != nil {
				t.Errorf("reload %d: %v", r, err)
				return
			}
		}
	}()
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	go func() {
		defer wg.Done()
		mounted := false
		for !stopped() {
			var err error
			if mounted {
				err = m.K.Umount(alice, "/mnt/backup")
			} else {
				err = m.K.Mount(alice, "/dev/sdc1", "/mnt/backup", "ext4", nil)
			}
			if err == nil {
				mounted = !mounted
			} else if err != errno.EPERM {
				t.Errorf("alice's mount or umount (mounted: %v): %v, want success or EPERM", mounted, err)
				return
			}
		}
		if mounted {
			if err := m.K.Umount(root, "/mnt/backup"); err != nil {
				t.Errorf("root's umount: %v", err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for !stopped() {
			if got := read(core.ProcMounts); got != mounts[0] && got != mounts[1] {
				t.Errorf("/proc/protego/mounts reads %q, the policy of neither content", got)
				return
			}
			if got := read(core.ProcBind); got != binds[0] && got != binds[1] {
				t.Errorf("/proc/protego/bind reads %q, the policy of neither content", got)
				return
			}
		}
	}()
	wg.Wait()
	last := (rounds - 1) % 2
	if got := read(core.ProcMounts); got != mounts[last] {
		t.Errorf("final /proc/protego/mounts %q, want %q", got, mounts[last])
	}
	if got := read(core.ProcBind); got != binds[last] {
		t.Errorf("final /proc/protego/bind %q, want %q", got, binds[last])
	}
}
