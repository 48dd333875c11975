package vfs

import (
	"path"
	"strings"
	"testing"
	"testing/quick"

	"protego/internal/caps"
	"protego/internal/errno"
)

// testCred is a minimal credential for DAC tests.
type testCred struct {
	uid, gid int
	groups   []int
	caps     caps.Set
}

func (c testCred) FSUID() int { return c.uid }
func (c testCred) FSGID() int { return c.gid }
func (c testCred) InGroup(gid int) bool {
	for _, g := range c.groups {
		if g == gid {
			return true
		}
	}
	return false
}
func (c testCred) Capable(cp caps.Cap) bool { return c.caps.Has(cp) }

var (
	root  = testCred{uid: 0, gid: 0, caps: caps.Full()}
	alice = testCred{uid: 1000, gid: 1000}
	bob   = testCred{uid: 1001, gid: 1001}
)

func newTestFS(t *testing.T) *FS {
	t.Helper()
	fs := New()
	mustMkdir := func(path string, mode Mode) {
		if _, err := fs.Mkdir(root, path, mode, 0, 0); err != nil {
			t.Fatalf("mkdir %s: %v", path, err)
		}
	}
	mustMkdir("/etc", 0o755)
	mustMkdir("/home", 0o755)
	mustMkdir("/tmp", 0o777|ModeSticky)
	mustMkdir("/dev", 0o755)
	if _, err := fs.Mkdir(root, "/home/alice", 0o700, 1000, 1000); err != nil {
		t.Fatalf("mkdir alice: %v", err)
	}
	return fs
}

func TestCleanPath(t *testing.T) {
	cases := []struct{ in, cwd, want string }{
		{"/", "/", "/"},
		{"/etc/passwd", "/", "/etc/passwd"},
		{"etc/passwd", "/", "/etc/passwd"},
		{"passwd", "/etc", "/etc/passwd"},
		{"../etc/passwd", "/home", "/etc/passwd"},
		{"/a//b///c", "/", "/a/b/c"},
		{"/a/./b/../c", "/", "/a/c"},
		{"/../..", "/", "/"},
		{"..", "/", "/"},
		{".", "/etc", "/etc"},
	}
	for _, c := range cases {
		if got := CleanPath(c.in, c.cwd); got != c.want {
			t.Errorf("CleanPath(%q,%q)=%q want %q", c.in, c.cwd, got, c.want)
		}
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct{ in, dir, base string }{
		{"/etc/passwd", "/etc", "passwd"},
		{"/etc", "/", "etc"},
		{"/", "/", "."},
		{"/a/b/c", "/a/b", "c"},
	}
	for _, c := range cases {
		d, b := SplitPath(c.in)
		if d != c.dir || b != c.base {
			t.Errorf("SplitPath(%q)=(%q,%q) want (%q,%q)", c.in, d, b, c.dir, c.base)
		}
	}
}

func TestIsUnder(t *testing.T) {
	if !IsUnder("/etc/passwd", "/etc") {
		t.Error("IsUnder(/etc/passwd, /etc) should be true")
	}
	if !IsUnder("/etc", "/etc") {
		t.Error("IsUnder(/etc, /etc) should be true")
	}
	if IsUnder("/etcetera", "/etc") {
		t.Error("IsUnder(/etcetera, /etc) should be false")
	}
	if !IsUnder("/anything", "/") {
		t.Error("everything is under /")
	}
}

func TestModeString(t *testing.T) {
	cases := []struct {
		mode Mode
		want string
	}{
		{TypeRegular | 0o4755, "-rwsr-xr-x"}, // setuid-to-root binary
		{TypeRegular | 0o644, "-rw-r--r--"},
		{TypeDir | 0o1777, "drwxrwxrwt"}, // /tmp
		{TypeRegular | 0o4644, "-rwSr--r--"},
		{TypeChar | 0o666, "crw-rw-rw-"},
		{TypeBlock | 0o660, "brw-rw----"},
		{TypeSymlink | 0o777, "lrwxrwxrwx"},
		{TypeRegular | 0o2755, "-rwxr-sr-x"},
	}
	for _, c := range cases {
		if got := c.mode.String(); got != c.want {
			t.Errorf("Mode(%o).String()=%q want %q", uint32(c.mode), got, c.want)
		}
	}
}

func TestCreateAndRead(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/etc/motd", []byte("hello"), 0o644, 0, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, err := fs.ReadFile(alice, "/etc/motd")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(data) != "hello" {
		t.Fatalf("got %q", data)
	}
}

func TestDACOwnerOnly(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/etc/shadow", []byte("secret"), 0o600, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(alice, "/etc/shadow"); err != errno.EACCES {
		t.Fatalf("alice reading shadow: got %v want EACCES", err)
	}
	if _, err := fs.ReadFile(root, "/etc/shadow"); err != nil {
		t.Fatalf("root reading shadow: %v", err)
	}
}

func TestDACGroup(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/etc/grouped", []byte("data"), 0o640, 0, 50); err != nil {
		t.Fatal(err)
	}
	member := testCred{uid: 1000, gid: 1000, groups: []int{50}}
	if _, err := fs.ReadFile(member, "/etc/grouped"); err != nil {
		t.Fatalf("group member read: %v", err)
	}
	if _, err := fs.ReadFile(bob, "/etc/grouped"); err != errno.EACCES {
		t.Fatalf("non-member read: got %v want EACCES", err)
	}
}

func TestDACCapabilityOverride(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/etc/shadow", []byte("secret"), 0o600, 0, 0); err != nil {
		t.Fatal(err)
	}
	overrider := testCred{uid: 1000, gid: 1000, caps: caps.Set(1) << caps.CAP_DAC_OVERRIDE}
	if _, err := fs.ReadFile(overrider, "/etc/shadow"); err != nil {
		t.Fatalf("CAP_DAC_OVERRIDE read: %v", err)
	}
	searcher := testCred{uid: 1000, gid: 1000, caps: caps.Set(1) << caps.CAP_DAC_READ_SEARCH}
	if _, err := fs.ReadFile(searcher, "/etc/shadow"); err != nil {
		t.Fatalf("CAP_DAC_READ_SEARCH read: %v", err)
	}
	if err := fs.WriteFile(searcher, "/etc/shadow", []byte("x"), 0o600, 0, 0); err != errno.EACCES {
		t.Fatalf("CAP_DAC_READ_SEARCH write should fail: %v", err)
	}
}

func TestDirectorySearchPermission(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/home/alice/secret", []byte("x"), 0o644, 1000, 1000); err != nil {
		t.Fatal(err)
	}
	// bob cannot traverse alice's 0700 home
	if _, err := fs.ReadFile(bob, "/home/alice/secret"); err != errno.EACCES {
		t.Fatalf("bob traverse: got %v want EACCES", err)
	}
	if _, err := fs.ReadFile(alice, "/home/alice/secret"); err != nil {
		t.Fatalf("alice read: %v", err)
	}
}

func TestStickyBitDelete(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(alice, "/tmp/alice.txt", []byte("a"), 0o644, 1000, 1000); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(bob, "/tmp/alice.txt"); err != errno.EPERM {
		t.Fatalf("bob removing alice's /tmp file: got %v want EPERM", err)
	}
	if err := fs.Remove(alice, "/tmp/alice.txt"); err != nil {
		t.Fatalf("alice removing own file: %v", err)
	}
}

func TestWriteClearsSetuid(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/tmp/tool", []byte("v1"), 0o755, 1000, 1000); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(root, "/tmp/tool", 0o4755); err != nil {
		t.Fatal(err)
	}
	ino, _ := fs.Lookup(root, "/tmp/tool")
	if !ino.Mode.IsSetuid() {
		t.Fatal("setuid bit not set")
	}
	// Non-root write clears the bit (anti-tamper rule).
	if err := fs.WriteFile(alice, "/tmp/tool", []byte("evil"), 0o755, 1000, 1000); err != nil {
		t.Fatal(err)
	}
	if ino.Mode.IsSetuid() {
		t.Fatal("setuid bit survived non-root write")
	}
}

func TestChmodRequiresOwner(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/etc/conf", []byte("x"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(alice, "/etc/conf", 0o777); err != errno.EPERM {
		t.Fatalf("alice chmod root file: got %v want EPERM", err)
	}
}

func TestChownRequiresCapChown(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(alice, "/tmp/mine", []byte("x"), 0o644, 1000, 1000); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(alice, "/tmp/mine", 0, 0); err != errno.EPERM {
		t.Fatalf("alice giving file to root: got %v want EPERM", err)
	}
	if err := fs.Chown(root, "/tmp/mine", 0, 0); err != nil {
		t.Fatalf("root chown: %v", err)
	}
}

func TestChownClearsSetuid(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/tmp/tool", []byte("x"), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(root, "/tmp/tool", 0o4755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(root, "/tmp/tool", 1000, 1000); err != nil {
		t.Fatal(err)
	}
	ino, _ := fs.Lookup(root, "/tmp/tool")
	if ino.Mode.IsSetuid() {
		t.Fatal("setuid survived chown")
	}
}

func TestSymlink(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/etc/real", []byte("target"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(root, "/etc/real", "/etc/link", 0, 0); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(alice, "/etc/link")
	if err != nil {
		t.Fatalf("read via symlink: %v", err)
	}
	if string(data) != "target" {
		t.Fatalf("got %q", data)
	}
	ino, err := fs.LookupNoFollow(root, "/etc/link")
	if err != nil || !ino.Mode.IsSymlink() {
		t.Fatalf("nofollow: %v mode=%v", err, ino.Mode)
	}
}

func TestSymlinkLoop(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.Symlink(root, "/etc/b", "/etc/a", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(root, "/etc/a", "/etc/b", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(root, "/etc/a"); err != errno.ELOOP {
		t.Fatalf("symlink loop: got %v want ELOOP", err)
	}
}

func TestMknodRequiresCapability(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.Mknod(alice, "/dev/evil", CharDevice, 1, 3, 0o666, 1000, 1000); err != errno.EPERM {
		t.Fatalf("alice mknod: got %v want EPERM", err)
	}
	if _, err := fs.Mknod(root, "/dev/null", CharDevice, 1, 3, 0o666, 0, 0); err != nil {
		t.Fatalf("root mknod: %v", err)
	}
}

func TestMountDetach(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.Mkdir(root, "/cdrom", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(root, "/cdrom/placeholder", []byte("empty"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	m := &Mount{Device: "/dev/cdrom", Point: "/cdrom", FSType: "iso9660", ReadOnly: true}
	if err := fs.AttachMount(root, m); err != nil {
		t.Fatalf("attach: %v", err)
	}
	// the placeholder is hidden under the mount
	if fs.Exists(root, "/cdrom/placeholder") {
		t.Fatal("placeholder visible after mount")
	}
	// the mount is read-only
	if err := fs.WriteFile(root, "/cdrom/new", []byte("x"), 0o644, 0, 0); err != errno.EROFS {
		t.Fatalf("write under ro mount: got %v want EROFS", err)
	}
	if got := fs.MountAt("/cdrom"); got == nil || got.Device != "/dev/cdrom" {
		t.Fatalf("MountAt: %+v", got)
	}
	if _, err := fs.DetachMount(root, "/cdrom"); err != nil {
		t.Fatalf("detach: %v", err)
	}
	if !fs.Exists(root, "/cdrom/placeholder") {
		t.Fatal("placeholder not restored after umount")
	}
}

func TestMountDeviceBusy(t *testing.T) {
	fs := newTestFS(t)
	for _, d := range []string{"/mnt1", "/mnt2"} {
		if _, err := fs.Mkdir(root, d, 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.AttachMount(root, &Mount{Device: "/dev/sdb1", Point: "/mnt1", FSType: "ext4"}); err != nil {
		t.Fatal(err)
	}
	if err := fs.AttachMount(root, &Mount{Device: "/dev/sdb1", Point: "/mnt2", FSType: "ext4"}); err != errno.EBUSY {
		t.Fatalf("double mount of device: got %v want EBUSY", err)
	}
	if err := fs.AttachMount(root, &Mount{Device: "/dev/sdc1", Point: "/mnt1", FSType: "ext4"}); err != errno.EBUSY {
		t.Fatalf("mount over mountpoint: got %v want EBUSY", err)
	}
}

func TestUmountNotMounted(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.DetachMount(root, "/etc"); err != errno.EINVAL {
		t.Fatalf("umount of non-mount: got %v want EINVAL", err)
	}
}

func TestFormatMtab(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.Mkdir(root, "/mnt", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.AttachMount(root, &Mount{Device: "/dev/sdb1", Point: "/mnt", FSType: "ext4", Options: []string{"rw", "user"}}); err != nil {
		t.Fatal(err)
	}
	mtab := fs.FormatMtab()
	if !strings.Contains(mtab, "/dev/sdb1 /mnt ext4 rw,user 0 0") {
		t.Fatalf("mtab: %q", mtab)
	}
}

func TestWatchEvents(t *testing.T) {
	fs := newTestFS(t)
	w := fs.Watch("/etc")
	defer w.Close()
	if err := fs.WriteFile(root, "/etc/fstab", []byte("x"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Creating a file via WriteFile emits create followed by write.
	ev := <-w.C
	if ev.Op != OpCreate || ev.Path != "/etc/fstab" {
		t.Fatalf("event: %+v", ev)
	}
	ev = <-w.C
	if ev.Op != OpWrite || ev.Path != "/etc/fstab" {
		t.Fatalf("event: %+v", ev)
	}
	if err := fs.WriteFile(root, "/etc/fstab", []byte("y"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	ev = <-w.C
	if ev.Op != OpWrite {
		t.Fatalf("event: %+v", ev)
	}
	// Writes elsewhere do not notify.
	if err := fs.WriteFile(root, "/tmp/other", []byte("z"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-w.C:
		t.Fatalf("unexpected event %+v", ev)
	default:
	}
}

func TestWatchClose(t *testing.T) {
	fs := newTestFS(t)
	w := fs.Watch("/etc")
	w.Close()
	w.Close() // double close is safe
	if err := fs.WriteFile(root, "/etc/x", []byte("1"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-w.C; ok {
		t.Fatal("channel should be closed")
	}
}

func TestProcFile(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.Mkdir(root, "/proc", 0o555, 0, 0); err != nil {
		t.Fatal(err)
	}
	var stored []byte
	_, err := fs.CreateProc("/proc/policy", 0o600,
		func(c Cred) ([]byte, error) { return stored, nil },
		func(c Cred, data []byte) error { stored = append([]byte(nil), data...); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(root, "/proc/policy", []byte("rule1"), 0o600, 0, 0); err != nil {
		t.Fatalf("proc write: %v", err)
	}
	data, err := fs.ReadFile(root, "/proc/policy")
	if err != nil || string(data) != "rule1" {
		t.Fatalf("proc read: %q %v", data, err)
	}
	// 0600 root-owned: alice cannot write policy
	if err := fs.WriteFile(alice, "/proc/policy", []byte("evil"), 0o600, 0, 0); err != errno.EACCES {
		t.Fatalf("alice proc write: got %v want EACCES", err)
	}
}

func TestReadDir(t *testing.T) {
	fs := newTestFS(t)
	for _, f := range []string{"/etc/b", "/etc/a", "/etc/c"} {
		if err := fs.WriteFile(root, f, []byte("x"), 0o644, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	names, err := fs.ReadDir(alice, "/etc")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("names: %v", names)
	}
}

// TestRename follows rename(2)'s type rules, checked against a Linux
// host: a file replaces a file, a directory replaces only an empty
// directory that is not a mount point, and a failed rename leaves both
// names as they were.
func TestRename(t *testing.T) {
	cases := []struct {
		name     string
		src, dst string
		want     error
		dstFile  string // the file that must exist under dst afterwards
	}{
		{"file over file", "/tmp/f", "/tmp/g", nil, "/tmp/g"},
		{"dir over non-empty dir", "/tmp/d", "/tmp/full", errno.ENOTEMPTY, "/tmp/full/x"},
		{"dir over empty dir", "/tmp/d", "/tmp/empty", nil, "/tmp/empty/in"},
		{"file over dir", "/tmp/f", "/tmp/empty", errno.EISDIR, ""},
		{"dir over file", "/tmp/d", "/tmp/g", errno.ENOTDIR, "/tmp/g"},
		{"dir over mount point", "/tmp/d", "/tmp/mnt", errno.EBUSY, ""},
		{"mount point itself", "/tmp/mnt", "/tmp/empty", errno.EBUSY, ""},
		{"encloses a mount point", "/tmp/box", "/tmp/empty", errno.EBUSY, ""},
		{"onto itself", "/tmp/f", "/tmp/f", nil, "/tmp/f"},
	}
	mountPoints := []string{"/tmp/mnt", "/tmp/box/mnt"}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := newTestFS(t)
			for _, dir := range []string{"/tmp/d", "/tmp/full", "/tmp/empty", "/tmp/mnt", "/tmp/box", "/tmp/box/mnt"} {
				if _, err := fs.Mkdir(root, dir, 0o755, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			for path, content := range map[string]string{
				"/tmp/f": "new", "/tmp/g": "old", "/tmp/d/in": "in", "/tmp/full/x": "x",
			} {
				if err := fs.WriteFile(root, path, []byte(content), 0o644, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			for _, point := range mountPoints {
				if err := fs.AttachMount(root, &Mount{Device: "tmpfs", Point: point, FSType: "tmpfs"}); err != nil {
					t.Fatal(err)
				}
			}
			srcIno, err := fs.Lookup(root, c.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Rename(root, c.src, c.dst); err != c.want {
				t.Fatalf("rename %s -> %s: got %v, want %v", c.src, c.dst, err, c.want)
			}
			moved := c.want == nil && c.src != c.dst
			if fs.Exists(root, c.src) == moved {
				t.Fatalf("%s exists = %v after the rename", c.src, !moved)
			}
			if dstIno, err := fs.Lookup(root, c.dst); err != nil || (c.want == nil) != (dstIno == srcIno) {
				t.Fatalf("%s: %v, is the source inode = %v", c.dst, err, dstIno == srcIno)
			}
			if c.dstFile != "" && !fs.Exists(root, c.dstFile) {
				t.Fatalf("%s missing after the rename", c.dstFile)
			}
			// No rename may orphan a mount: each mount point still
			// resolves, and can be unmounted.
			for _, point := range mountPoints {
				if _, err := fs.DetachMount(root, point); err != nil {
					t.Fatalf("umount %s after the rename: %v", point, err)
				}
			}
		})
	}
}

// TestRenameDirIntoOwnSubtree: moving a directory under itself is EINVAL,
// as on Linux, whether the new path names the subtree directly or through
// a symlink, and the directory and its contents stay where they were.
func TestRenameDirIntoOwnSubtree(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.Mkdir(root, "/tmp/d", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(root, "/tmp/d/f", []byte("data"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir(root, "/tmp/d/e", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(root, "/tmp/d", "/tmp/l", 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, newPath := range []string{"/tmp/d/sub", "/tmp/d/e/sub", "/tmp/l/sub"} {
		if err := fs.Rename(root, "/tmp/d", newPath); err != errno.EINVAL {
			t.Errorf("rename /tmp/d -> %s: got %v, want EINVAL", newPath, err)
		}
		if data, err := fs.ReadFile(root, "/tmp/d/f"); err != nil || string(data) != "data" {
			t.Fatalf("after rename to %s: /tmp/d/f = %q, %v", newPath, data, err)
		}
		if fs.Exists(root, "/tmp/d/sub") || fs.Exists(root, "/tmp/d/e/sub") {
			t.Fatalf("after rename to %s: /tmp/d moved into itself", newPath)
		}
	}
}

func TestAppendFile(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteFile(root, "/tmp/log", []byte("a"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile(root, "/tmp/log", []byte("b")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile(root, "/tmp/log")
	if string(data) != "ab" {
		t.Fatalf("got %q", data)
	}
	if err := fs.AppendFile(root, "/tmp/nolog", []byte("x")); err != errno.ENOENT {
		t.Fatalf("append missing: got %v want ENOENT", err)
	}
}

// TestRemoveDirectory: Remove is unlink(2), which refuses a directory with
// EISDIR on Linux, also one that holds entries or is a mount point.
// (internal/kernel's TestUnlinkDirectory covers the empty one.)
func TestRemoveDirectory(t *testing.T) {
	cases := []struct {
		name  string
		setup func(fs *FS) error
	}{
		{"non-empty directory", func(fs *FS) error {
			if _, err := fs.Mkdir(root, "/mnt", 0o755, 0, 0); err != nil {
				return err
			}
			return fs.WriteFile(root, "/mnt/x", []byte("1"), 0o644, 0, 0)
		}},
		{"mount point", func(fs *FS) error {
			if _, err := fs.Mkdir(root, "/mnt", 0o755, 0, 0); err != nil {
				return err
			}
			return fs.AttachMount(root, &Mount{Device: "/dev/sdb1", Point: "/mnt", FSType: "ext4"})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := newTestFS(t)
			if err := c.setup(fs); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove(root, "/mnt"); err != errno.EISDIR {
				t.Fatalf("remove: got %v want EISDIR", err)
			}
			if ino, err := fs.Lookup(root, "/mnt"); err != nil || !ino.Mode.IsDir() {
				t.Fatalf("directory gone after a refused remove: %v", err)
			}
		})
	}
}

func TestMkdirAll(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll(root, "/var/spool/mail", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists(root, "/var/spool/mail") {
		t.Fatal("missing")
	}
	// Idempotent.
	if err := fs.MkdirAll(root, "/var/spool/mail", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// Property: CleanPath agrees with the standard library's path.Clean on
// absolute inputs and on relative inputs joined to the cwd, is
// idempotent, always produces an absolute path with no ".", "..", or
// empty components, and returns an already-clean path without
// allocating. Segments are drawn from a small alphabet rich in "", "."
// and "..", so the cases exercise what cleaning actually does.
func TestCleanPathProperties(t *testing.T) {
	alphabet := [...]string{"", ".", "..", "a", "b"}
	join := func(idx []uint8) string {
		segs := make([]string, len(idx))
		for i, x := range idx {
			segs[i] = alphabet[int(x)%len(alphabet)]
		}
		return strings.Join(segs, "/")
	}
	f := func(pathIdx, cwdIdx []uint8, abs bool) bool {
		cwd := "/" + join(cwdIdx)
		p := join(pathIdx)
		if abs {
			p = "/" + p
		}
		ref := p // an empty first segment makes p absolute too
		if !strings.HasPrefix(p, "/") {
			ref = cwd + "/" + p
		}
		got := CleanPath(p, cwd)
		if got != path.Clean(ref) {
			t.Logf("CleanPath(%q, %q) = %q, path.Clean(%q) = %q", p, cwd, got, ref, path.Clean(ref))
			return false
		}
		if !strings.HasPrefix(got, "/") || CleanPath(got, cwd) != got {
			return false
		}
		if got != "/" {
			for _, c := range strings.Split(got[1:], "/") {
				if c == "" || c == "." || c == ".." {
					return false
				}
			}
		}
		if n := testing.AllocsPerRun(5, func() { CleanPath(got, cwd) }); n != 0 {
			t.Logf("CleanPath(%q) of a clean path allocates %.0f times", got, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any permission bits, the owner's access is decided solely by
// the user class bits; an unrelated user by the other class bits.
func TestDACClassProperty(t *testing.T) {
	fs := New()
	f := func(bits uint16) bool {
		mode := Mode(bits) & PermMask
		ino := fs.newInode(TypeRegular|mode, 1000, 1000)
		ownerOK := checkPerm(alice, ino, MayRead) == nil
		wantOwner := mode&PermUserRead != 0
		otherOK := checkPerm(bob, ino, MayRead) == nil
		wantOther := mode&PermOtherRead != 0
		return ownerOK == wantOwner && otherOK == wantOther
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: mount then unmount restores the directory exactly.
func TestMountRoundTripProperty(t *testing.T) {
	f := func(fileNames []string) bool {
		fs := New()
		if _, err := fs.Mkdir(RootCred, "/mnt", 0o755, 0, 0); err != nil {
			return false
		}
		seen := map[string]bool{}
		var valid []string
		for _, n := range fileNames {
			if n == "" || strings.ContainsAny(n, "/\x00") || n == "." || n == ".." || seen[n] {
				continue
			}
			seen[n] = true
			valid = append(valid, n)
			if err := fs.WriteFile(RootCred, "/mnt/"+n, []byte(n), 0o644, 0, 0); err != nil {
				return false
			}
		}
		if err := fs.AttachMount(RootCred, &Mount{Device: "/dev/x", Point: "/mnt", FSType: "ext4"}); err != nil {
			return false
		}
		names, _ := fs.ReadDir(RootCred, "/mnt")
		if len(names) != 0 {
			return false
		}
		if _, err := fs.DetachMount(RootCred, "/mnt"); err != nil {
			return false
		}
		names, _ = fs.ReadDir(RootCred, "/mnt")
		return len(names) == len(valid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
