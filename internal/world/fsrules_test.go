package world

import (
	"slices"
	"testing"

	"protego/internal/core"
	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/lsm"
	"protego/internal/vfs"
)

// writeProfile denies its binary every write outside allow, as a loaded
// AppArmor profile's write set would.
type writeProfile struct {
	lsm.Base
	binary string
	allow  []string
}

func (p writeProfile) Name() string { return "write-profile" }

func (p writeProfile) FileOpen(t lsm.Task, req lsm.OpenRequest) (lsm.Decision, error) {
	if !req.Write || t.BinaryPath() != p.binary ||
		slices.ContainsFunc(p.allow, func(dir string) bool { return vfs.IsUnder(req.Path, dir) }) {
		return lsm.NoOpinion, nil
	}
	return lsm.Deny, errno.EACCES
}

// goldenClones runs fn on a fresh clone of each image's golden build.
func goldenClones(t *testing.T, fn func(t *testing.T, m *Machine)) {
	t.Helper()
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
			fn(t, m)
		})
	}
}

// TestNonRootWriteClearsSetID: every path that changes a file's data
// applies one rule, as Linux's file_remove_privs: a writer whose fsuid is
// not 0 clears the setuid and setgid bits, and root's write keeps them.
func TestNonRootWriteClearsSetID(t *testing.T) {
	const path = "/tmp/setid"
	writes := []struct {
		name  string
		write func(k *kernel.Kernel, t *kernel.Task) error
	}{
		{"WriteFile", func(k *kernel.Kernel, t *kernel.Task) error { return k.WriteFile(t, path, []byte("x")) }},
		{"AppendFile", func(k *kernel.Kernel, t *kernel.Task) error { return k.AppendFile(t, path, []byte("x")) }},
		{"open+write", func(k *kernel.Kernel, t *kernel.Task) error {
			fd, err := k.Open(t, path, kernel.O_WRONLY)
			if err != nil {
				return err
			}
			defer k.CloseFD(t, fd)
			_, err = k.Write(t, fd, []byte("x"))
			return err
		}},
		{"open O_TRUNC", func(k *kernel.Kernel, t *kernel.Task) error {
			fd, err := k.Open(t, path, kernel.O_WRONLY|kernel.O_TRUNC)
			if err != nil {
				return err
			}
			return k.CloseFD(t, fd)
		}},
	}
	goldenClones(t, func(t *testing.T, m *Machine) {
		for _, w := range writes {
			for _, c := range []struct {
				user string
				want vfs.Mode
			}{{"alice", 0o777}, {"root", 0o6777}} {
				if err := m.K.FS.WriteFile(vfs.RootCred, path, []byte("data"), 0o6777, 0, 0); err != nil {
					t.Fatal(err)
				}
				if err := m.K.FS.Chmod(vfs.RootCred, path, 0o6777); err != nil {
					t.Fatal(err)
				}
				if err := w.write(m.K, session(t, m, c.user)); err != nil {
					t.Fatalf("%s by %s: %v", w.name, c.user, err)
				}
				ino, err := m.K.FS.Lookup(vfs.RootCred, path)
				if err != nil {
					t.Fatal(err)
				}
				if got := ino.Mode.Perm(); got != c.want {
					t.Errorf("%s by %s: mode %o, want %o", w.name, c.user, got, c.want)
				}
			}
		}
	})
}

// TestReadOnlyMountRefusesMutation: under a read-only mount every
// mutation is EROFS, even root's and even through a symlink: one that
// changes a directory in the mount, and a chmod, chown or open for
// writing of an inode in it. The mount point's own parent is writable, so
// renaming it stays EBUSY. The tree starts empty, so the O_TRUNC open names
// the mount's root directory: EISDIR, as on Linux, whose directory check
// comes before the read-only one.
func TestReadOnlyMountRefusesMutation(t *testing.T) {
	goldenClones(t, func(t *testing.T, m *Machine) {
		root := session(t, m, "root")
		if err := m.K.Mount(root, "/dev/cdrom", "/cdrom", "iso9660", []string{"ro"}); err != nil {
			t.Fatal(err)
		}
		if err := m.K.WriteFile(root, "/tmp/f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := m.K.FS.Symlink(vfs.RootCred, "/cdrom", "/tmp/ro", 0, 0); err != nil {
			t.Fatal(err)
		}
		open := func(path string, flags int) error {
			fd, err := m.K.Open(root, path, flags)
			if err == nil {
				m.K.CloseFD(root, fd)
			}
			return err
		}
		for _, c := range []struct {
			name string
			call func() error
			want error
		}{
			{"mkdir", func() error { return m.K.Mkdir(root, "/cdrom/x", 0o755) }, errno.EROFS},
			{"create", func() error { return open("/cdrom/f", kernel.O_WRONLY|kernel.O_CREAT) }, errno.EROFS},
			{"symlink", func() error { return m.K.FS.Symlink(vfs.RootCred, "/tmp/f", "/cdrom/l", 0, 0) }, errno.EROFS},
			{"mknod", func() error {
				_, err := m.K.FS.Mknod(vfs.RootCred, "/cdrom/d", vfs.BlockDevice, 8, 1, 0o600, 0, 0)
				return err
			}, errno.EROFS},
			{"unlink", func() error { return m.K.Unlink(root, "/cdrom/f") }, errno.EROFS},
			{"rename within", func() error { return m.K.Rename(root, "/cdrom/x", "/cdrom/y") }, errno.EROFS},
			{"rename into", func() error { return m.K.Rename(root, "/tmp/f", "/cdrom/f") }, errno.EROFS},
			{"chmod", func() error { return m.K.Chmod(root, "/cdrom", 0o700) }, errno.EROFS},
			{"chown", func() error { return m.K.Chown(root, "/cdrom", UIDAlice, -1) }, errno.EROFS},
			{"open O_TRUNC", func() error { return open("/cdrom", kernel.O_RDONLY|kernel.O_TRUNC) }, errno.EISDIR},
			{"mkdir through a symlink", func() error { return m.K.Mkdir(root, "/tmp/ro/x", 0o755) }, errno.EROFS},
			{"chmod through a symlink", func() error { return m.K.Chmod(root, "/tmp/ro", 0o700) }, errno.EROFS},
			{"rename the mount point", func() error { return m.K.Rename(root, "/cdrom", "/cdrom2") }, errno.EBUSY},
			{"open for reading", func() error { return open("/cdrom", kernel.O_RDONLY) }, nil},
		} {
			if err := c.call(); err != c.want {
				t.Errorf("%s: %v, want %v", c.name, err, c.want)
			}
		}
	})
}

// TestDescriptorAccessModes: open(2) and a descriptor's reads and writes
// follow Linux's access modes, as a Linux 6.18 host answers as root and as
// an unprivileged uid. O_TRUNC asks for write permission, so a directory
// opened with it is EISDIR whatever the access mode; O_APPEND alone asks
// for none; read(2) needs a descriptor open for reading and write(2) one
// open for writing.
func TestDescriptorAccessModes(t *testing.T) {
	read := func(k *kernel.Kernel, t *kernel.Task, fd int) error { _, err := k.Read(t, fd, 8); return err }
	write := func(k *kernel.Kernel, t *kernel.Task, fd int) error {
		_, err := k.Write(t, fd, []byte("x"))
		return err
	}
	goldenClones(t, func(t *testing.T, m *Machine) {
		// Root owns both files: alice may read /tmp/r and only write /tmp/w.
		for path, mode := range map[string]vfs.Mode{"/tmp/r": 0o644, "/tmp/w": 0o622} {
			if err := m.K.FS.WriteFile(vfs.RootCred, path, []byte("data"), mode, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			name, user, path string
			flags            int
			op               func(*kernel.Kernel, *kernel.Task, int) error // nil: the open alone
			want             error
		}{
			{"directory O_RDONLY|O_TRUNC", "root", "/tmp", kernel.O_RDONLY | kernel.O_TRUNC, nil, errno.EISDIR},
			{"O_RDONLY|O_APPEND needs read permission only", "alice", "/tmp/r", kernel.O_RDONLY | kernel.O_APPEND, nil, nil},
			{"O_RDONLY|O_TRUNC needs write permission", "alice", "/tmp/r", kernel.O_RDONLY | kernel.O_TRUNC, nil, errno.EACCES},
			{"read on O_WRONLY", "alice", "/tmp/w", kernel.O_WRONLY, read, errno.EBADF},
			{"read on O_RDWR", "root", "/tmp/w", kernel.O_RDWR, read, nil},
			{"write on O_RDONLY|O_APPEND", "root", "/tmp/w", kernel.O_RDONLY | kernel.O_APPEND, write, errno.EBADF},
			{"write on O_RDONLY|O_TRUNC", "root", "/tmp/w", kernel.O_RDONLY | kernel.O_TRUNC, write, errno.EBADF},
			{"write on O_WRONLY|O_APPEND", "alice", "/tmp/w", kernel.O_WRONLY | kernel.O_APPEND, write, nil},
		} {
			task := session(t, m, c.user)
			fd, err := m.K.Open(task, c.path, c.flags)
			if err == nil && c.op != nil {
				err = c.op(m.K, task, fd)
			}
			if err == nil {
				m.K.CloseFD(task, fd)
			}
			if err != c.want {
				t.Errorf("%s: %v, want %v", c.name, err, c.want)
			}
		}
	})
}

// TestOpenPathsAgree: open(2) with read(2) or write(2), ReadFile,
// WriteFile and AppendFile take one open decision and change file data in
// one step, so each call of a row gives the row's errno, on a fresh clone
// of each golden image. A refused call leaves the inode at the path as it
// was, the image's own or none, and raises no event on a watch of its
// directory; a write raises exactly one.
func TestOpenPathsAgree(t *testing.T) {
	calls := map[string]func(k *kernel.Kernel, t *kernel.Task, path string) error{
		"ReadFile": func(k *kernel.Kernel, t *kernel.Task, path string) error {
			_, err := k.ReadFile(t, path)
			return err
		},
		"open+read": func(k *kernel.Kernel, t *kernel.Task, path string) error {
			fd, err := k.Open(t, path, kernel.O_RDONLY)
			if err != nil {
				return err
			}
			defer k.CloseFD(t, fd)
			_, err = k.Read(t, fd, 64)
			return err
		},
		"WriteFile":  func(k *kernel.Kernel, t *kernel.Task, path string) error { return k.WriteFile(t, path, []byte("x")) },
		"AppendFile": func(k *kernel.Kernel, t *kernel.Task, path string) error { return k.AppendFile(t, path, []byte("x")) },
		"open+write": func(k *kernel.Kernel, t *kernel.Task, path string) error {
			fd, err := k.Open(t, path, kernel.O_WRONLY|kernel.O_CREAT)
			if err != nil {
				return err
			}
			defer k.CloseFD(t, fd)
			_, err = k.Write(t, fd, []byte("x"))
			return err
		},
		"open O_TRUNC": func(k *kernel.Kernel, t *kernel.Task, path string) error {
			fd, err := k.Open(t, path, kernel.O_WRONLY|kernel.O_TRUNC)
			if err == nil {
				k.CloseFD(t, fd)
			}
			return err
		},
	}
	writes := []string{"WriteFile", "AppendFile", "open+write", "open O_TRUNC"}
	rows := []struct {
		name, user, path string
		protegoOnly      bool
		writeOnly        []string // write paths a profile allows the user's binary
		calls            []string
		want             error
	}{
		{name: "a directory", user: "alice", path: "/etc",
			calls: append([]string{"ReadFile", "open+read"}, writes...), want: errno.EISDIR},
		{name: "an unreadable file", user: "alice", path: "/etc/shadow",
			calls: []string{"ReadFile", "open+read"}, want: errno.EACCES},
		{name: "a create outside the AppArmor profile", user: "alice", path: "/tmp/new",
			writeOnly: []string{"/tmp/ok"}, calls: []string{"WriteFile", "open+write"}, want: errno.EACCES},
		{name: "a proc file with no write handler", user: "root", path: kernel.ProcTraceStats,
			calls: writes[:3], want: errno.EIO},
		{name: "a Protego proc file with no write handler", user: "root", path: core.ProcStatus,
			protegoOnly: true, calls: writes[:3], want: errno.EIO},
		{name: "a policy file", user: "root", path: "/etc/fstab", calls: writes},
	}
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		snap, err := Golden(mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if row.protegoOnly && mode != kernel.ModeProtego {
				continue
			}
			for _, name := range row.calls {
				t.Run(mode.String()+"/"+row.name+"/"+name, func(t *testing.T) {
					m, err := snap.Clone()
					if err != nil {
						t.Fatal(err)
					}
					task := session(t, m, row.user)
					if row.writeOnly != nil {
						m.K.LSM.Register(writeProfile{binary: task.BinaryPath(), allow: row.writeOnly})
					}
					before, _ := m.K.FS.Lookup(vfs.RootCred, row.path)
					dir, _ := vfs.SplitPath(row.path)
					w := m.K.FS.Watch(dir)
					defer w.Close()
					if err := calls[name](m.K, task, row.path); err != row.want {
						t.Fatalf("%v, want %v", err, row.want)
					}
					events := 0
					for len(w.C) > 0 {
						if ev := <-w.C; ev.Op == vfs.OpWrite && ev.Path == row.path {
							events++
						}
					}
					if row.want != nil {
						if after, _ := m.K.FS.Lookup(vfs.RootCred, row.path); after != before {
							t.Errorf("the refused call left %p at %s, %p before", after, row.path, before)
						}
						if events != 0 {
							t.Errorf("the refused call raised %d write events", events)
						}
					} else if events != 1 {
						t.Errorf("%d write events, want 1", events)
					}
				})
			}
		}
	}
}

// TestProcReadAdvancesOffset: read(2) of a synthetic file serves up to n
// bytes of its rendering from the descriptor's offset and moves the
// offset, so reading /proc/protego/mounts 16 bytes at a time rebuilds
// ReadFile's text and then reaches the end.
func TestProcReadAdvancesOffset(t *testing.T) {
	snap, err := Golden(kernel.ModeProtego)
	if err != nil {
		t.Fatal(err)
	}
	m, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	root := session(t, m, "root")
	want, err := m.K.ReadFile(root, core.ProcMounts)
	if err != nil || len(want) <= 16 {
		t.Fatalf("ReadFile: %q, %v", want, err)
	}
	fd, err := m.K.Open(root, core.ProcMounts, kernel.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for range len(want) {
		buf, err := m.K.Read(root, fd, 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) > 16 {
			t.Fatalf("a 16-byte read returned %d bytes", len(buf))
		}
		if buf == nil {
			break
		}
		got = append(got, buf...)
	}
	if string(got) != string(want) {
		t.Fatalf("16-byte reads gave %q, ReadFile %q", got, want)
	}
	if buf, err := m.K.Read(root, fd, 16); buf != nil || err != nil {
		t.Fatalf("read at the end: %q, %v", buf, err)
	}
}
