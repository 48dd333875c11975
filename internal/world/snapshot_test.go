package world

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/seccomp"
	"protego/internal/userspace"
	"protego/internal/vfs"
)

// TestSnapshotFingerprintEquality is the snapshot guarantee: a fresh
// clone is indistinguishable from its parent under the canonical
// fingerprint, and a clone of the golden image from a fresh Build, in
// both modes.
func TestSnapshotFingerprintEquality(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		t.Run(mode.String(), func(t *testing.T) {
			parent, err := Build(Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			snap := parent.Snapshot()
			clone, err := snap.Clone()
			if err != nil {
				t.Fatal(err)
			}
			pf := fingerprintOf(parent)
			requireSame(t, "parent vs clone", pf, fingerprintOf(clone))
			// parent is a fresh Build, so a clone of the shared golden
			// image must match it too.
			golden, err := Golden(mode)
			if err != nil {
				t.Fatal(err)
			}
			stamped, err := golden.Clone()
			if err != nil {
				t.Fatal(err)
			}
			requireSame(t, "fresh build vs golden clone", pf, fingerprintOf(stamped))
		})
	}
}

// clonePair builds a Protego golden machine and two clones of it.
func clonePair(t *testing.T) (*Machine, *Machine, *Machine) {
	t.Helper()
	parent, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	snap := parent.Snapshot()
	a, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return parent, a, b
}

// TestCloneIsolationFiles: file creation, overwrite, append, chmod, and
// remove in one clone are invisible to the parent and the sibling.
func TestCloneIsolationFiles(t *testing.T) {
	parent, a, b := clonePair(t)
	base := fingerprintOf(parent)
	bBase := fingerprintOf(b)

	fs := a.K.FS
	if err := fs.WriteFile(vfs.RootCred, "/etc/tenant-marker", []byte("a"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile(vfs.RootCred, "/etc/motd", []byte("tenant A was here\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(vfs.RootCred, "/etc/shells", []byte("/bin/tenant-sh\n"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(vfs.RootCred, "/etc/fstab", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(vfs.RootCred, "/etc/motd"); err != nil {
		t.Fatal(err)
	}

	if parent.K.FS.Exists(vfs.RootCred, "/etc/tenant-marker") {
		t.Fatal("marker leaked into parent")
	}
	if b.K.FS.Exists(vfs.RootCred, "/etc/tenant-marker") {
		t.Fatal("marker leaked into sibling")
	}
	data, err := parent.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if err != nil || strings.Contains(string(data), "tenant A") {
		t.Fatalf("parent motd affected: %q err=%v", data, err)
	}
	requireSame(t, "parent", base, fingerprintOf(parent))
	requireSame(t, "sibling", bBase, fingerprintOf(b))
}

// TestCloneIsolationAppendNoScribble: appends on a shared file must not
// scribble on the shared backing array (capacity clamp check).
func TestCloneIsolationAppendNoScribble(t *testing.T) {
	parent, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	before, err := parent.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if err != nil {
		t.Fatal(err)
	}
	snap := parent.Snapshot()
	a, _ := snap.Clone()
	b, _ := snap.Clone()
	if err := a.K.FS.AppendFile(vfs.RootCred, "/etc/motd", []byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	if err := b.K.FS.AppendFile(vfs.RootCred, "/etc/motd", []byte("BBBB")); err != nil {
		t.Fatal(err)
	}
	after, _ := parent.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if string(after) != string(before) {
		t.Fatalf("parent motd mutated: %q -> %q", before, after)
	}
	ad, _ := a.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if string(ad) != string(before)+"AAAA" {
		t.Fatalf("clone A append wrong: %q", ad)
	}
	bd, _ := b.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if string(bd) != string(before)+"BBBB" {
		t.Fatalf("clone B append wrong: %q", bd)
	}
}

// TestClonePositionalWrite: a write at an offset inside a file, without
// O_TRUNC, overwrites those bytes and keeps the tail, as on Linux. The
// clone's file data shares its array with the golden image, so the write
// must land in a private copy: a sibling clone made before it and a clone
// made after it still read the original.
func TestClonePositionalWrite(t *testing.T) {
	img, err := Golden(kernel.ModeProtego)
	if err != nil {
		t.Fatal(err)
	}
	w, err := img.Clone()
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := img.Clone()
	if err != nil {
		t.Fatal(err)
	}
	orig, err := sibling.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if err != nil {
		t.Fatal(err)
	}
	root := w.K.Fork(w.Init)
	defer w.K.Exit(root, 0)
	fd, err := w.K.Open(root, "/etc/motd", kernel.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	// The second write overwrites bytes of the now-private copy in place.
	for _, s := range []string{"HACKED", "!!"} {
		if _, err := w.K.Write(root, fd, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	want := "HACKED!!" + string(orig[8:])
	if got, _ := w.K.FS.ReadFile(vfs.RootCred, "/etc/motd"); string(got) != want {
		t.Errorf("writer reads %q, want %q", got, want)
	}
	fresh, err := img.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Machine{"sibling": sibling, "fresh clone": fresh} {
		if got, _ := m.K.FS.ReadFile(vfs.RootCred, "/etc/motd"); string(got) != string(orig) {
			t.Errorf("%s reads %q, want the original %q", name, got, orig)
		}
	}
}

// TestCloneOpenUnlinkWrite: the classic tempfile idiom — open, unlink,
// then write the fd — performed in a clone. The unlinked descriptor
// points at a snapshot-shared sealed inode with no path left to copy up
// through; the write must land on a private fd-local copy, never on the
// golden image the parent and every sibling share.
func TestCloneOpenUnlinkWrite(t *testing.T) {
	parent, a, b := clonePair(t)
	base := fingerprintOf(parent)
	bBase := fingerprintOf(b)
	before, err := parent.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if err != nil {
		t.Fatal(err)
	}

	root := a.K.Fork(a.Init)
	defer a.K.Exit(root, 0)
	fd, err := a.K.Open(root, "/etc/motd", kernel.O_WRONLY|kernel.O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.K.Unlink(root, "/etc/motd"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.K.Write(root, fd, []byte("tempfile secret")); err != nil {
		t.Fatalf("write to unlinked fd: %v", err)
	}

	after, err := parent.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if err != nil || string(after) != string(before) {
		t.Fatalf("unlinked-fd write leaked into golden image: %q err=%v", after, err)
	}
	requireSame(t, "parent", base, fingerprintOf(parent))
	requireSame(t, "sibling", bBase, fingerprintOf(b))
}

// TestCloneFdWriteAfterReplace: a descriptor whose path entry has been
// replaced by a different file must not rebind to the stranger — the
// fd's writes stay fd-local and the new occupant keeps its own contents.
func TestCloneFdWriteAfterReplace(t *testing.T) {
	parent, a, _ := clonePair(t)
	base := fingerprintOf(parent)

	root := a.K.Fork(a.Init)
	defer a.K.Exit(root, 0)
	fd, err := a.K.Open(root, "/etc/shells", kernel.O_WRONLY|kernel.O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.K.Unlink(root, "/etc/shells"); err != nil {
		t.Fatal(err)
	}
	if err := a.K.WriteFile(root, "/etc/shells", []byte("stranger\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.K.Write(root, fd, []byte("fd data")); err != nil {
		t.Fatalf("write to replaced fd: %v", err)
	}
	data, err := a.K.FS.ReadFile(vfs.RootCred, "/etc/shells")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "stranger\n" {
		t.Fatalf("fd write landed on the unrelated file now at its path: %q", data)
	}
	requireSame(t, "parent", base, fingerprintOf(parent))
}

// TestCloneIsolationTasks: forks and exits in a clone never appear in the
// parent's task table.
func TestCloneIsolationTasks(t *testing.T) {
	parent, a, _ := clonePair(t)
	parentCount := parent.K.TaskCount()
	sess, err := a.Session("alice")
	if err != nil {
		t.Fatal(err)
	}
	if parent.K.TaskCount() != parentCount {
		t.Fatalf("fork in clone changed parent task count: %d -> %d", parentCount, parent.K.TaskCount())
	}
	if parent.K.Task(sess.PID()) != nil {
		t.Fatal("clone session pid resolves in parent")
	}
	// Credential changes in the clone stay in the clone.
	code, _, _, err := a.Run(sess, []string{"/usr/bin/id"}, nil)
	if err != nil || code != 0 {
		t.Fatalf("id in clone: code=%d err=%v", code, err)
	}
}

// TestCloneIsolationMounts: a whitelisted user mount in the clone leaves
// the parent's mount table and fingerprint untouched.
func TestCloneIsolationMounts(t *testing.T) {
	parent, a, b := clonePair(t)
	base := fingerprintOf(parent)
	sess, err := a.Session("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.K.Mount(sess, "/dev/cdrom", "/cdrom", "iso9660", []string{"ro"}); err != nil {
		t.Fatalf("whitelisted mount in clone failed: %v", err)
	}
	if len(parent.K.FS.Mounts()) != 0 {
		t.Fatalf("parent mount table grew: %v", parent.K.FS.Mounts())
	}
	if len(b.K.FS.Mounts()) != 0 {
		t.Fatal("sibling mount table grew")
	}
	requireSame(t, "parent", base, fingerprintOf(parent))
	if err := a.K.Umount(sess, "/cdrom"); err == nil {
		// umount by mounter is allowed ("user" option); after detach the
		// parent must still be pristine.
		requireSame(t, "parent after clone umount", base, fingerprintOf(parent))
	}
}

// TestCloneIsolationPorts: port binds in a clone never occupy the
// parent's or a sibling's port space.
func TestCloneIsolationPorts(t *testing.T) {
	parent, a, b := clonePair(t)
	bindOn := func(m *Machine) error {
		root := m.K.Fork(m.Init)
		defer m.K.Exit(root, 0)
		sock, err := m.K.Socket(root, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
		if err != nil {
			return err
		}
		return m.K.Bind(root, sock, 8080)
	}
	if err := bindOn(a); err != nil {
		t.Fatalf("bind in clone A: %v", err)
	}
	// The same port is free in the sibling and the parent.
	if err := bindOn(b); err != nil {
		t.Fatalf("bind in clone B hit clone A's port: %v", err)
	}
	if err := bindOn(parent); err != nil {
		t.Fatalf("bind in parent hit a clone's port: %v", err)
	}
}

// TestCloneIsolationPolicyReload: a monitord-style policy reload in the
// clone (new fstab rule synced into the kernel) must not alter the
// parent's in-kernel whitelist or its /proc files.
func TestCloneIsolationPolicyReload(t *testing.T) {
	parent, a, b := clonePair(t)
	parentRules := len(parent.Protego.MountRules())
	base := fingerprintOf(parent)

	extra := "/dev/sde1  /mnt/backup  ext4  rw,user,noauto  0 0\n"
	if err := a.K.FS.AppendFile(vfs.RootCred, "/etc/fstab", []byte(extra)); err != nil {
		t.Fatal(err)
	}
	if err := a.Monitor.SyncMounts(); err != nil {
		t.Fatal(err)
	}
	if len(a.Protego.MountRules()) <= parentRules {
		t.Fatalf("clone reload did not add rule: %d", len(a.Protego.MountRules()))
	}
	if len(parent.Protego.MountRules()) != parentRules {
		t.Fatalf("parent whitelist changed: %d -> %d", parentRules, len(parent.Protego.MountRules()))
	}
	if len(b.Protego.MountRules()) != parentRules {
		t.Fatal("sibling whitelist changed")
	}
	// The parent's /proc/protego/mounts must render the old policy.
	out, err := parent.K.FS.ReadFile(vfs.RootCred, "/proc/protego/mounts")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "/dev/sde1") {
		t.Fatal("clone policy visible through parent /proc")
	}
	requireSame(t, "parent", base, fingerprintOf(parent))
}

// TestCloneTraceIsolation: syscalls in a clone land on the clone's
// tracer, not the parent's.
func TestCloneTraceIsolation(t *testing.T) {
	parent, a, _ := clonePair(t)
	before := parent.K.Trace.Stats().Emitted
	sess, err := a.Session("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, _, err := a.Run(sess, []string{"/usr/bin/id"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := parent.K.Trace.Stats().Emitted; got != before {
		t.Fatalf("clone syscalls traced on parent: %d -> %d", before, got)
	}
	if a.K.Trace.Stats().Emitted == 0 {
		t.Fatal("clone tracer saw nothing")
	}
}

// TestConcurrentClones stamps 16 clones concurrently from one snapshot
// of each image and runs a mixed workload on every clone at once: an
// alice-owned marker file, an append to the shared /etc/motd, a
// whitelisted user mount, a UDP bind of the same port everywhere,
// fork+exit, a utility run, and on the seccomp image a kill its profile
// forbids; then every clone fingerprints itself. Afterwards every clone
// must see only its own marker, in /tmp and in its motd, still own its
// session pid and have the digest it computed among the others, and the
// parent's fingerprint must not have moved. Run under -race this is the
// data-race gate for the COW machinery and the digest caches of shared
// sealed inodes.
func TestConcurrentClones(t *testing.T) {
	images := []struct {
		name    string
		mode    kernel.Mode
		seccomp *seccomp.ProfileSet
	}{
		{"linux", kernel.ModeLinux, nil},
		{"protego", kernel.ModeProtego, nil},
		{"protego-seccomp", kernel.ModeProtego, restrictedInitSet(kernel.SysKill)},
	}
	for _, img := range images {
		t.Run(img.name, func(t *testing.T) {
			parent, err := Build(Options{Mode: img.mode})
			if err != nil {
				t.Fatal(err)
			}
			if img.seccomp != nil {
				parent.InstallSeccomp(img.seccomp, false)
			}
			base := fingerprintOf(parent)
			snap := parent.Snapshot()
			const n = 16
			marker := func(id int) string { return fmt.Sprintf("/tmp/tenant-%d", id) }
			clones := make([]*Machine, n)
			sessions := make([]*kernel.Task, n)
			digests := make([]Digest, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					m, err := snap.Clone()
					if err != nil {
						t.Error(err)
						return
					}
					sess, err := m.Session("alice")
					if err != nil {
						t.Error(err)
						return
					}
					if err := cloneWorkload(m, sess, marker(id)); err != nil {
						t.Errorf("clone %d: %v", id, err)
						return
					}
					// Every clone digests the shared sealed inodes at once,
					// filling and reading their cached sums.
					clones[id], sessions[id], digests[id] = m, sess, m.Fingerprint()
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for id, m := range clones {
				for j := 0; j < n; j++ {
					if got := m.K.FS.Exists(vfs.RootCred, marker(j)); got != (j == id) {
						t.Errorf("clone %d: marker of clone %d present=%v", id, j, got)
					}
				}
				motd, err := m.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < n; j++ {
					want := 0
					if j == id {
						want = 1
					}
					if got := strings.Count(string(motd), marker(j)+"\n"); got != want {
						t.Errorf("clone %d: motd holds clone %d's line %d times, want %d", id, j, got, want)
					}
				}
				if m.K.Task(sessions[id].PID()) != sessions[id] {
					t.Errorf("clone %d: task table does not own session pid %d", id, sessions[id].PID())
				}
				if got := m.Fingerprint(); got != digests[id] {
					t.Errorf("clone %d: digest %x alone, %x among concurrent clones", id, got, digests[id])
				}
				for j := 0; j < id; j++ {
					if digests[j] == digests[id] {
						t.Errorf("clones %d and %d hold different markers but equal digests", j, id)
					}
				}
			}
			requireSame(t, "parent under concurrent clones", base, fingerprintOf(parent))
		})
	}
}

// cloneWorkload is one clone's share of TestConcurrentClones.
func cloneWorkload(m *Machine, sess *kernel.Task, marker string) error {
	k := m.K
	if err := k.WriteFile(sess, marker, []byte(marker)); err != nil {
		return fmt.Errorf("marker: %w", err)
	}
	// Every clone copies up the same sealed golden file at once.
	if err := k.FS.AppendFile(vfs.RootCred, "/etc/motd", []byte(marker+"\n")); err != nil {
		return fmt.Errorf("motd append: %w", err)
	}
	// Whitelisted in fstab ("/dev/sdb1 /media/usb vfat rw,users,noauto"):
	// granted in-kernel on Protego, root-only on the baseline.
	err := k.Mount(sess, "/dev/sdb1", "/media/usb", "vfat", []string{"rw", "nosuid", "nodev"})
	switch {
	case m.Protego == nil && !errno.Is(err, errno.EPERM):
		return fmt.Errorf("baseline user mount: err=%v, want EPERM", err)
	case m.Protego != nil && err != nil:
		return fmt.Errorf("whitelisted mount: %w", err)
	case err == nil:
		if err := k.Umount(sess, "/media/usb"); err != nil {
			return fmt.Errorf("umount: %w", err)
		}
	}
	// The same port in every clone: a shared netstack would refuse all
	// but the first bind.
	sock, err := k.Socket(sess, netstack.AF_INET, netstack.SOCK_DGRAM, netstack.IPPROTO_UDP)
	if err != nil {
		return fmt.Errorf("socket: %w", err)
	}
	if err := k.Bind(sess, sock, 8080); err != nil {
		return fmt.Errorf("bind 8080: %w", err)
	}
	k.Exit(k.Fork(sess), 0)
	if code, _, stderr, err := m.Run(sess, []string{userspace.BinID}, nil); err != nil || code != 0 {
		return fmt.Errorf("id: code=%d err=%v stderr=%s", code, err, stderr)
	}
	if m.Seccomp != nil {
		// Sessions fork from init without exec-ing, so init's profile,
		// which forbids kill, governs them.
		if err := k.Kill(sess, sess.PID(), 15); !errno.Is(err, errno.ENOSYS) {
			return fmt.Errorf("kill under seccomp: err=%v, want ENOSYS", err)
		}
	}
	return nil
}

// TestCloneAllocs: stamping a machine from the golden image must cost at
// most a tenth of the allocations of a fresh Build, and no more than the
// image's ceiling: a clone copies up no inode to bind its /proc handlers
// and shares the netfilter rules. Allocation counts are deterministic,
// unlike a wall-clock clone-rate ratio.
func TestCloneAllocs(t *testing.T) {
	ceiling := map[kernel.Mode]float64{kernel.ModeLinux: 37, kernel.ModeProtego: 58}
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		t.Run(mode.String(), func(t *testing.T) {
			snap, err := Golden(mode)
			if err != nil {
				t.Fatal(err)
			}
			build := testing.AllocsPerRun(3, func() {
				if _, err := Build(Options{Mode: mode}); err != nil {
					t.Fatal(err)
				}
			})
			clone := testing.AllocsPerRun(10, func() {
				if _, err := snap.Clone(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("allocs: clone %.0f, build %.0f", clone, build)
			if clone*10 > build {
				t.Fatalf("clone allocates %.0f, more than a tenth of Build's %.0f", clone, build)
			}
			if clone > ceiling[mode] {
				t.Fatalf("clone allocates %.0f, more than the ceiling of %.0f", clone, ceiling[mode])
			}
		})
	}
}

// TestSnapshotRepeated: the golden machine can keep mutating between
// snapshots; each clone reflects the parent state at its own clone time.
func TestSnapshotRepeated(t *testing.T) {
	parent, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	snap := parent.Snapshot()
	a, _ := snap.Clone()
	if err := parent.K.FS.WriteFile(vfs.RootCred, "/etc/generation", []byte("2"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	b, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if a.K.FS.Exists(vfs.RootCred, "/etc/generation") {
		t.Fatal("earlier clone sees later parent write")
	}
	if !b.K.FS.Exists(vfs.RootCred, "/etc/generation") {
		t.Fatal("later clone missing parent write")
	}
	requireSame(t, "parent vs re-clone", fingerprintOf(parent), fingerprintOf(b))
}
