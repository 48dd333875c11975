package kernel

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/lsm"
	"protego/internal/netstack"
	"protego/internal/vfs"
)

func testKernel(t *testing.T) *Kernel {
	t.Helper()
	return testKernelIn(t, ModeLinux)
}

// testKernelIn is testKernel in mode: a Protego kernel allows
// unprivileged namespaces.
func testKernelIn(t *testing.T, mode Mode) *Kernel {
	t.Helper()
	k := New(mode)
	for _, dir := range []string{"/bin", "/etc", "/dev", "/home"} {
		if _, err := k.FS.Mkdir(vfs.RootCred, dir, 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.FS.Mkdir(vfs.RootCred, "/tmp", 0o777|vfs.ModeSticky, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.FS.WriteFile(vfs.RootCred, "/etc/motd", []byte("hello world"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	return k
}

func userTask(k *Kernel, uid, gid int) *Task {
	init := k.InitTask()
	t := k.Fork(init)
	t.SetUserCreds(UserCreds(uid, gid))
	return t
}

// TestParseMode: both mode names round-trip through String; anything
// else, case and typos included, is rejected rather than defaulted.
func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeLinux, ModeProtego} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, name := range []string{"Linux", "lnux", ""} {
		if got, err := ParseMode(name); err == nil {
			t.Errorf("ParseMode(%q) = %v, want an error", name, got)
		}
	}
}

// --- credentials ---

func TestRootCredsHaveAllCaps(t *testing.T) {
	c := RootCreds()
	if !c.Capable(caps.CAP_SYS_ADMIN) || !c.Capable(caps.CAP_NET_RAW) {
		t.Fatal("root must hold all capabilities")
	}
	if c.EUID != 0 {
		t.Fatal("euid should be 0")
	}
}

func TestUserCredsHaveNoCaps(t *testing.T) {
	c := UserCreds(1000, 100, 10, 20)
	for cp := caps.Cap(0); cp < caps.NumCaps; cp++ {
		if c.Capable(cp) {
			t.Fatalf("user holds %v", cp)
		}
	}
	if !c.InGroup(10) || !c.InGroup(20) || !c.InGroup(100) {
		t.Fatal("groups wrong")
	}
	if c.InGroup(55) {
		t.Fatal("phantom group")
	}
}

func TestCredsCloneIsDeep(t *testing.T) {
	a := UserCreds(1000, 100, 10)
	b := a.Clone()
	b.Groups[0] = 99
	b.EUID = 0
	if a.Groups[0] != 10 || a.EUID != 1000 {
		t.Fatal("clone aliased")
	}
}

func TestRecomputeCapsProperty(t *testing.T) {
	// Property: after setting all uids, caps are full iff uid is 0.
	f := func(uid uint16) bool {
		c := RootCreds()
		c.setAllUIDs(int(uid))
		c.recomputeCaps()
		if uid == 0 {
			return c.Effective == caps.Full()
		}
		return c.Effective.IsEmpty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- identity syscalls ---

func TestSetuidPrivileged(t *testing.T) {
	k := testKernel(t)
	root := k.InitTask()
	task := k.Fork(root)
	if err := k.Setuid(task, 1000); err != nil {
		t.Fatal(err)
	}
	c := task.Creds()
	if c.RUID != 1000 || c.EUID != 1000 || c.SUID != 1000 {
		t.Fatalf("creds: %+v", c)
	}
	if !c.Effective.IsEmpty() {
		t.Fatal("caps survived transition away from root")
	}
	// And there is no way back.
	if err := k.Setuid(task, 0); err != errno.EPERM {
		t.Fatalf("return to root: %v", err)
	}
}

func TestSetuidUnprivilegedSelf(t *testing.T) {
	k := testKernel(t)
	task := userTask(k, 1000, 100)
	if err := k.Setuid(task, 1000); err != nil {
		t.Fatal(err)
	}
	if err := k.Setuid(task, 1001); err != errno.EPERM {
		t.Fatalf("lateral without policy: %v", err)
	}
}

func TestSeteuidSwapsWithinSaved(t *testing.T) {
	k := testKernel(t)
	root := k.InitTask()
	task := k.Fork(root)
	// Simulate a setuid binary that got euid 1000 saved 0.
	task.SetUserCreds(&Credentials{RUID: 1000, EUID: 0, SUID: 0, FUID: 0, Effective: caps.Full(), Permitted: caps.Full()})
	if err := k.Seteuid(task, 1000); err != nil {
		t.Fatal(err)
	}
	if task.EUID() != 1000 {
		t.Fatal("euid not dropped")
	}
	// Saved uid 0 permits re-raising.
	if err := k.Seteuid(task, 0); err != nil {
		t.Fatalf("re-raise via saved uid: %v", err)
	}
}

func TestSetgidSemantics(t *testing.T) {
	k := testKernel(t)
	task := userTask(k, 1000, 100)
	task.SetUserCreds(UserCreds(1000, 100, 20))
	if err := k.Setgid(task, 20); err != nil {
		t.Fatalf("member setgid: %v", err)
	}
	if task.EGID() != 20 {
		t.Fatal("egid unchanged")
	}
	if err := k.Setgid(task, 999); err != errno.EPERM {
		t.Fatalf("non-member setgid: %v", err)
	}
}

func TestSetgroupsRequiresCap(t *testing.T) {
	k := testKernel(t)
	task := userTask(k, 1000, 100)
	if err := k.Setgroups(task, []int{1, 2}); err != errno.EPERM {
		t.Fatalf("unprivileged setgroups: %v", err)
	}
	root := k.InitTask()
	if err := k.Setgroups(root, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
}

// --- LSM-mediated setuid ---

// fakeLSM scripts hook decisions for kernel tests.
type fakeLSM struct {
	lsm.Base
	setuidDec  lsm.Decision
	execUpdate *lsm.CredUpdate
	execErr    error
	// gid and groups, when groups is non-nil, are what ResolveGroups
	// reports for any uid.
	gid    int
	groups []int
}

func (f *fakeLSM) Name() string { return "fake" }
func (f *fakeLSM) SetuidCheck(lsm.Task, int) (lsm.Decision, error) {
	return f.setuidDec, nil
}
func (f *fakeLSM) ExecCheck(t lsm.Task, req *lsm.ExecRequest) (*lsm.CredUpdate, error) {
	return f.execUpdate, f.execErr
}
func (f *fakeLSM) ResolveGroups(int) (int, []int, bool) {
	return f.gid, f.groups, f.groups != nil
}

func TestSetuidLSMGrant(t *testing.T) {
	k := testKernel(t)
	k.LSM.Register(&fakeLSM{setuidDec: lsm.Grant})
	task := userTask(k, 1000, 100)
	if err := k.Setuid(task, 1001); err != nil {
		t.Fatal(err)
	}
	c := task.Creds()
	if c.RUID != 1001 || c.EUID != 1001 {
		t.Fatalf("creds: %+v", c)
	}
}

// TestSetuidLSMGrantSetsTargetGroups: a granted transition leaves the
// task with the target's gid and groups, not the caller's, because the
// task holds no privilege to set them afterwards.
func TestSetuidLSMGrantSetsTargetGroups(t *testing.T) {
	k := testKernel(t)
	k.LSM.Register(&fakeLSM{setuidDec: lsm.Grant, gid: 300, groups: []int{300, 301}})
	task := userTask(k, 1000, 100)
	if err := k.Setuid(task, 1001); err != nil {
		t.Fatal(err)
	}
	c := task.Creds()
	if c.RGID != 300 || c.EGID != 300 || c.SGID != 300 || len(c.Groups) != 2 || c.Groups[1] != 301 {
		t.Fatalf("creds: %+v", c)
	}
}

func TestSetuidLSMDeferReportsSuccess(t *testing.T) {
	k := testKernel(t)
	k.LSM.Register(&fakeLSM{setuidDec: lsm.DeferToExec})
	task := userTask(k, 1000, 100)
	if err := k.Setuid(task, 1001); err != nil {
		t.Fatal(err)
	}
	// Success reported, but no privilege conferred.
	if task.EUID() != 1000 {
		t.Fatal("creds changed before exec")
	}
}

func TestSetuidLSMDeny(t *testing.T) {
	k := testKernel(t)
	k.LSM.Register(&fakeLSM{setuidDec: lsm.Deny})
	task := userTask(k, 1000, 100)
	if err := k.Setuid(task, 1001); err != errno.EPERM {
		t.Fatalf("deny: %v", err)
	}
}

// --- fork/exec ---

func installBinary(t *testing.T, k *Kernel, path string, mode vfs.Mode, prog Program) {
	t.Helper()
	if err := k.FS.WriteFile(vfs.RootCred, path, []byte("ELF"), mode, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.FS.Chmod(vfs.RootCred, path, mode); err != nil {
		t.Fatal(err)
	}
	k.RegisterBinary(path, prog)
}

func TestExecRunsProgram(t *testing.T) {
	k := testKernel(t)
	installBinary(t, k, "/bin/hello", 0o755, func(k *Kernel, t *Task) int {
		t.Printf("hello from %s", t.Argv()[1])
		return 7
	})
	task := userTask(k, 1000, 100)
	var out bytes.Buffer
	task.Stdout = &out
	code, err := k.Exec(task, "/bin/hello", []string{"/bin/hello", "tests"}, nil)
	if err != nil || code != 7 {
		t.Fatalf("exec: code=%d err=%v", code, err)
	}
	if out.String() != "hello from tests" {
		t.Fatalf("stdout: %q", out.String())
	}
}

func TestExecSetuidBitElevates(t *testing.T) {
	k := testKernel(t)
	var seenEUID int
	var seenCaps caps.Set
	installBinary(t, k, "/bin/suid", 0o4755, func(k *Kernel, t *Task) int {
		seenEUID = t.EUID()
		seenCaps = t.Creds().Effective
		return 0
	})
	task := userTask(k, 1000, 100)
	if _, err := k.Exec(task, "/bin/suid", []string{"/bin/suid"}, nil); err != nil {
		t.Fatal(err)
	}
	if seenEUID != 0 {
		t.Fatalf("euid in setuid binary = %d", seenEUID)
	}
	if seenCaps != caps.Full() {
		t.Fatal("setuid-root binary should hold all caps")
	}
	// The real uid stays the invoking user's.
	if task.UID() != 1000 {
		t.Fatal("ruid changed")
	}
}

func TestExecNoSetuidBitNoElevation(t *testing.T) {
	k := testKernel(t)
	var seenEUID int
	installBinary(t, k, "/bin/plain", 0o755, func(k *Kernel, t *Task) int {
		seenEUID = t.EUID()
		return 0
	})
	task := userTask(k, 1000, 100)
	if _, err := k.Exec(task, "/bin/plain", []string{"/bin/plain"}, nil); err != nil {
		t.Fatal(err)
	}
	if seenEUID != 1000 {
		t.Fatalf("euid = %d", seenEUID)
	}
}

func TestExecDeniedWithoutExecPerm(t *testing.T) {
	k := testKernel(t)
	installBinary(t, k, "/bin/rootonly", 0o700, func(*Kernel, *Task) int { return 0 })
	task := userTask(k, 1000, 100)
	if _, err := k.Exec(task, "/bin/rootonly", []string{"/bin/rootonly"}, nil); err != errno.EACCES {
		t.Fatalf("exec: %v", err)
	}
}

func TestExecMissingBinary(t *testing.T) {
	k := testKernel(t)
	task := userTask(k, 1000, 100)
	if _, err := k.Exec(task, "/bin/nothere", []string{"x"}, nil); err != errno.ENOENT {
		t.Fatalf("exec: %v", err)
	}
	// Present file without a registered program is ENOEXEC.
	if err := k.FS.WriteFile(vfs.RootCred, "/bin/garbage", []byte("x"), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Exec(task, "/bin/garbage", []string{"x"}, nil); err != errno.ENOEXEC {
		t.Fatalf("exec: %v", err)
	}
}

func TestExecAppliesLSMCredUpdate(t *testing.T) {
	k := testKernel(t)
	uid := 1001
	gid := 200
	k.LSM.Register(&fakeLSM{execUpdate: &lsm.CredUpdate{UID: &uid, GID: &gid, Groups: []int{7, 8}}})
	var seen *Credentials
	installBinary(t, k, "/bin/target", 0o755, func(k *Kernel, t *Task) int {
		seen = t.Creds()
		return 0
	})
	task := userTask(k, 1000, 100)
	if _, err := k.Exec(task, "/bin/target", []string{"/bin/target"}, nil); err != nil {
		t.Fatal(err)
	}
	if seen.RUID != 1001 || seen.EGID != 200 || len(seen.Groups) != 2 {
		t.Fatalf("creds: %+v", seen)
	}
}

func TestExecVetoedByLSM(t *testing.T) {
	k := testKernel(t)
	k.LSM.Register(&fakeLSM{execErr: errno.EPERM})
	installBinary(t, k, "/bin/x", 0o755, func(*Kernel, *Task) int { return 0 })
	task := userTask(k, 1000, 100)
	if _, err := k.Exec(task, "/bin/x", []string{"/bin/x"}, nil); err != errno.EPERM {
		t.Fatalf("exec: %v", err)
	}
}

func TestExecClosesCloexecFDs(t *testing.T) {
	k := testKernel(t)
	installBinary(t, k, "/bin/noop", 0o755, func(*Kernel, *Task) int { return 0 })
	task := userTask(k, 1000, 100)
	fd, err := k.Open(task, "/etc/motd", O_RDONLY|O_CLOEXEC)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := k.Open(task, "/etc/motd", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Exec(task, "/bin/noop", []string{"/bin/noop"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Read(task, fd, 1); err != errno.EBADF {
		t.Fatalf("cloexec fd survived: %v", err)
	}
	if _, err := k.Read(task, keep, 1); err != nil {
		t.Fatalf("normal fd lost: %v", err)
	}
}

func TestForkInheritance(t *testing.T) {
	k := testKernel(t)
	parent := userTask(k, 1000, 100)
	parent.Setenv("FOO", "bar")
	parent.SetSecurityBlob("stamp", 42)
	child := k.Fork(parent)
	if child.PID() == parent.PID() {
		t.Fatal("same pid")
	}
	if child.Getenv("FOO") != "bar" {
		t.Fatal("env not inherited")
	}
	if child.SecurityBlob("stamp") != 42 {
		t.Fatal("blobs not inherited")
	}
	// Child env mutation does not touch the parent.
	child.Setenv("FOO", "baz")
	if parent.Getenv("FOO") != "bar" {
		t.Fatal("env aliased")
	}
	// Child cred mutation does not touch the parent.
	if err := k.Setuid(child, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestExitRemovesTask(t *testing.T) {
	k := testKernel(t)
	task := userTask(k, 1000, 100)
	pid := task.PID()
	k.Exit(task, 3)
	if k.Task(pid) != nil {
		t.Fatal("task still present")
	}
	exited, code := task.Exited()
	if !exited || code != 3 {
		t.Fatalf("exit state: %v %d", exited, code)
	}
	k.Exit(task, 9) // double exit is a no-op
	if _, code := task.Exited(); code != 3 {
		t.Fatal("double exit changed code")
	}
}

func TestSpawnCaptureOpt(t *testing.T) {
	k := testKernel(t)
	installBinary(t, k, "/bin/echo", 0o755, func(k *Kernel, t *Task) int {
		t.Printf("out")
		t.Errorf("err")
		return 0
	})
	parent := userTask(k, 1000, 100)
	res, err := k.Spawn(parent, "/bin/echo", []string{"/bin/echo"}, nil, SpawnOpts{Capture: true})
	if err != nil || res.Code != 0 || res.Stdout != "out" || res.Stderr != "err" {
		t.Fatalf("spawn: %d %q %q %v", res.Code, res.Stdout, res.Stderr, err)
	}
}

// --- fd syscalls ---

func TestOpenReadWriteClose(t *testing.T) {
	k := testKernel(t)
	task := userTask(k, 1000, 100)
	fd, err := k.Open(task, "/tmp/file", O_RDWR|O_CREAT)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := k.Write(task, fd, []byte("abcdef")); err != nil || n != 6 {
		t.Fatalf("write: %d %v", n, err)
	}
	// Reset position by reopening.
	if err := k.CloseFD(task, fd); err != nil {
		t.Fatal(err)
	}
	fd, err = k.Open(task, "/tmp/file", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	data, err := k.Read(task, fd, 3)
	if err != nil || string(data) != "abc" {
		t.Fatalf("read: %q %v", data, err)
	}
	data, err = k.Read(task, fd, 10)
	if err != nil || string(data) != "def" {
		t.Fatalf("read rest: %q %v", data, err)
	}
	data, err = k.Read(task, fd, 10)
	if err != nil || data != nil {
		t.Fatalf("read eof: %q %v", data, err)
	}
	if _, err := k.Write(task, fd, []byte("x")); err != errno.EBADF {
		t.Fatalf("write to rdonly: %v", err)
	}
	if err := k.CloseFD(task, fd); err != nil {
		t.Fatal(err)
	}
	if err := k.CloseFD(task, fd); err != errno.EBADF {
		t.Fatalf("double close: %v", err)
	}
}

func TestOpenAppendAndTrunc(t *testing.T) {
	k := testKernel(t)
	task := userTask(k, 1000, 100)
	if err := k.WriteFile(task, "/tmp/log", []byte("first")); err != nil {
		t.Fatal(err)
	}
	fd, err := k.Open(task, "/tmp/log", O_WRONLY|O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(task, fd, []byte("+more")); err != nil {
		t.Fatal(err)
	}
	data, _ := k.ReadFile(task, "/tmp/log")
	if string(data) != "first+more" {
		t.Fatalf("append: %q", data)
	}
	if _, err := k.Open(task, "/tmp/log", O_WRONLY|O_TRUNC); err != nil {
		t.Fatal(err)
	}
	data, _ = k.ReadFile(task, "/tmp/log")
	if len(data) != 0 {
		t.Fatalf("trunc: %q", data)
	}
}

func TestReadDirAndChdir(t *testing.T) {
	k := testKernel(t)
	task := userTask(k, 1000, 100)
	if err := k.Chdir(task, "/etc"); err != nil {
		t.Fatal(err)
	}
	if task.Cwd() != "/etc" {
		t.Fatal("cwd not changed")
	}
	// Relative path resolution against cwd.
	data, err := k.ReadFile(task, "motd")
	if err != nil || string(data) != "hello world" {
		t.Fatalf("relative read: %q %v", data, err)
	}
	if err := k.Chdir(task, "/etc/motd"); err != errno.ENOTDIR {
		t.Fatalf("chdir to file: %v", err)
	}
	if err := k.Chdir(task, "/nosuch"); err != errno.ENOENT {
		t.Fatalf("chdir missing: %v", err)
	}
}

// TestTrailingSlashNamesDir: a path that ends in "/" or "/." must name a
// directory, with the errno a Linux host returns for each call.
func TestTrailingSlashNamesDir(t *testing.T) {
	cases := []struct {
		name string
		op   func(k *Kernel, task *Task) error
		want error
	}{
		{`open("file/")`, func(k *Kernel, task *Task) error {
			_, err := k.Open(task, "/tmp/file/", O_RDONLY)
			return err
		}, errno.ENOTDIR},
		{`stat("file/.")`, func(k *Kernel, task *Task) error {
			_, err := k.Stat(task, "/tmp/file/.")
			return err
		}, errno.ENOTDIR},
		{`rename("file", "file2/")`, func(k *Kernel, task *Task) error {
			return k.Rename(task, "/tmp/file", "/tmp/file2/")
		}, errno.ENOTDIR},
		{`open("new/", O_CREAT)`, func(k *Kernel, task *Task) error {
			_, err := k.Open(task, "/tmp/new/", O_WRONLY|O_CREAT)
			return err
		}, errno.EISDIR},
		{`open("dir/")`, func(k *Kernel, task *Task) error {
			_, err := k.Open(task, "/tmp/dir/", O_RDONLY)
			return err
		}, nil},
		{`stat("dir/.")`, func(k *Kernel, task *Task) error {
			_, err := k.Stat(task, "/tmp/dir/.")
			return err
		}, nil},
		{`rename("dir", "dir2/")`, func(k *Kernel, task *Task) error {
			return k.Rename(task, "/tmp/dir", "/tmp/dir2/")
		}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := testKernel(t)
			task := userTask(k, 1000, 100)
			if err := k.WriteFile(task, "/tmp/file", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := k.Mkdir(task, "/tmp/dir", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := c.op(k, task); err != c.want {
				t.Fatalf("got %v, want %v", err, c.want)
			}
			// A refused call leaves the names as they were.
			if c.want != nil {
				for path, exists := range map[string]bool{"/tmp/file": true, "/tmp/file2": false, "/tmp/new": false} {
					if k.FS.Exists(vfs.RootCred, path) != exists {
						t.Fatalf("%s exists = %v after the call", path, !exists)
					}
				}
			}
		})
	}
}

// TestUnlinkDirectory: unlink(2) on Linux refuses a directory with EISDIR,
// whether it is empty or not, and leaves it in place.
func TestUnlinkDirectory(t *testing.T) {
	cases := []struct {
		name    string
		entries []string
	}{
		{"empty directory", nil},
		{"non-empty directory", []string{"/tmp/dir/x"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := testKernel(t)
			task := userTask(k, 1000, 100)
			if err := k.Mkdir(task, "/tmp/dir", 0o755); err != nil {
				t.Fatal(err)
			}
			for _, path := range c.entries {
				if err := k.WriteFile(task, path, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if err := k.Unlink(task, "/tmp/dir"); err != errno.EISDIR {
				t.Fatalf("got %v, want EISDIR", err)
			}
			for _, path := range append([]string{"/tmp/dir"}, c.entries...) {
				if !k.FS.Exists(vfs.RootCred, path) {
					t.Fatalf("%s gone after the refused unlink", path)
				}
			}
		})
	}
}

// --- mount syscall privilege ---

func TestMountRequiresPrivilege(t *testing.T) {
	k := testKernel(t)
	if _, err := k.FS.Mkdir(vfs.RootCred, "/mnt", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	user := userTask(k, 1000, 100)
	if err := k.Mount(user, "/dev/sdb1", "/mnt", "ext4", nil); err != errno.EPERM {
		t.Fatalf("user mount: %v", err)
	}
	root := k.InitTask()
	if err := k.Mount(root, "/dev/sdb1", "/mnt", "ext4", nil); err != nil {
		t.Fatalf("root mount: %v", err)
	}
	if err := k.Umount(user, "/mnt"); err != errno.EPERM {
		t.Fatalf("user umount: %v", err)
	}
	if err := k.Umount(root, "/mnt"); err != nil {
		t.Fatalf("root umount: %v", err)
	}
	if err := k.Umount(root, "/mnt"); err != errno.EINVAL {
		t.Fatalf("umount non-mounted: %v", err)
	}
}

// --- sockets ---

func TestSocketRawRequiresCapNetRaw(t *testing.T) {
	k := testKernel(t)
	user := userTask(k, 1000, 100)
	if _, err := k.Socket(user, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_ICMP); err != errno.EPERM {
		t.Fatalf("raw: %v", err)
	}
	if _, err := k.Socket(user, netstack.AF_PACKET, netstack.SOCK_RAW, 0); err != errno.EPERM {
		t.Fatalf("packet: %v", err)
	}
	if _, err := k.Socket(user, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP); err != nil {
		t.Fatalf("tcp: %v", err)
	}
	root := k.InitTask()
	if _, err := k.Socket(root, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_ICMP); err != nil {
		t.Fatalf("root raw: %v", err)
	}
}

func TestBindPrivilegedPorts(t *testing.T) {
	k := testKernel(t)
	user := userTask(k, 1000, 100)
	sock, err := k.Socket(user, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Bind(user, sock, 80); err != errno.EACCES {
		t.Fatalf("user bind 80: %v", err)
	}
	if err := k.Bind(user, sock, 8080); err != nil {
		t.Fatalf("user bind 8080: %v", err)
	}
	root := k.InitTask()
	rsock, _ := k.Socket(root, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err := k.Bind(root, rsock, 80); err != nil {
		t.Fatalf("root bind 80: %v", err)
	}
}

// --- routes ---

func TestRoutePrivilege(t *testing.T) {
	k := testKernel(t)
	user := userTask(k, 1000, 100)
	r := netstack.Route{Dest: netstack.IPv4(192, 168, 50, 0), PrefixLen: 24, Iface: "eth0"}
	if err := k.AddRoute(user, r); err != errno.EPERM {
		t.Fatalf("user route: %v", err)
	}
	root := k.InitTask()
	if err := k.AddRoute(root, r); err != nil {
		t.Fatalf("root route: %v", err)
	}
	if err := k.DelRoute(user, r.Dest, r.PrefixLen); err != errno.EPERM {
		t.Fatalf("user del: %v", err)
	}
	if err := k.DelRoute(root, r.Dest, r.PrefixLen); err != nil {
		t.Fatalf("root del: %v", err)
	}
	if err := k.DelRoute(root, r.Dest, r.PrefixLen); err != errno.ESRCH {
		t.Fatalf("del missing: %v", err)
	}
}

// --- ioctl ---

func TestIoctlDispatch(t *testing.T) {
	k := testKernel(t)
	if _, err := k.FS.Mknod(vfs.RootCred, "/dev/thing", vfs.CharDevice, 10, 1, 0o666, 0, 0); err != nil {
		t.Fatal(err)
	}
	var gotCmd uint32
	k.RegisterDevices(map[string]IoctlHandler{"/dev/thing": func(t *Task, cmd uint32, arg any, granted bool) error {
		gotCmd = cmd
		return nil
	}})
	user := userTask(k, 1000, 100)
	if err := k.Ioctl(user, "/dev/thing", 0x42, nil); err != nil {
		t.Fatal(err)
	}
	if gotCmd != 0x42 {
		t.Fatal("handler not called")
	}
	// ioctl on a non-device is ENOTTY.
	if err := k.Ioctl(user, "/etc/motd", 0x42, nil); err != errno.ENOTTY {
		t.Fatalf("ioctl on file: %v", err)
	}
	// ioctl on a device without a handler is ENOTTY.
	if _, err := k.FS.Mknod(vfs.RootCred, "/dev/mute", vfs.CharDevice, 10, 2, 0o666, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Ioctl(user, "/dev/mute", 1, nil); err != errno.ENOTTY {
		t.Fatalf("ioctl no handler: %v", err)
	}
	// Device DAC applies.
	if _, err := k.FS.Mknod(vfs.RootCred, "/dev/priv", vfs.CharDevice, 10, 3, 0o600, 0, 0); err != nil {
		t.Fatal(err)
	}
	k.RegisterDevices(map[string]IoctlHandler{"/dev/priv": func(*Task, uint32, any, bool) error { return nil }})
	if err := k.Ioctl(user, "/dev/priv", 1, nil); err != errno.EACCES {
		t.Fatalf("ioctl without perm: %v", err)
	}
}

// --- signals, pipes ---

func TestSignals(t *testing.T) {
	k := testKernel(t)
	task := userTask(k, 1000, 100)
	got := 0
	if err := k.SigAction(task, 10, func(sig int) { got = sig }); err != nil {
		t.Fatal(err)
	}
	if err := k.SigAction(task, 0, nil); err != errno.EINVAL {
		t.Fatalf("bad signal: %v", err)
	}
	if err := k.Kill(task, task.PID(), 10); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatal("handler not invoked")
	}
	if err := k.Kill(task, 99999, 10); err != errno.ESRCH {
		t.Fatalf("kill missing: %v", err)
	}
	// Cross-uid kill denied.
	other := userTask(k, 2000, 200)
	if err := k.Kill(other, task.PID(), 10); err != errno.EPERM {
		t.Fatalf("cross-uid kill: %v", err)
	}
	// Root may signal anyone.
	root := k.InitTask()
	if err := k.Kill(root, task.PID(), 10); err != nil {
		t.Fatalf("root kill: %v", err)
	}
}

func TestPipes(t *testing.T) {
	k := testKernel(t)
	p := k.NewPipe()
	if _, err := p.Write([]byte("token")); err != nil {
		t.Fatal(err)
	}
	data, err := p.Read(time.Second)
	if err != nil || string(data) != "token" {
		t.Fatalf("pipe: %q %v", data, err)
	}
	if _, err := p.Read(5 * time.Millisecond); err != errno.EAGAIN {
		t.Fatalf("empty pipe read: %v", err)
	}
	p.Close()
	if _, err := p.Read(time.Second); err != errno.EPIPE {
		t.Fatalf("closed pipe: %v", err)
	}
}

// --- audit ---

func TestAuditLog(t *testing.T) {
	k := testKernel(t)
	user := userTask(k, 1000, 100)
	if _, err := k.FS.Mkdir(vfs.RootCred, "/mnt", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	_ = k.Mount(user, "/dev/x", "/mnt", "ext4", nil)
	log := k.AuditLog()
	if len(log) == 0 {
		t.Fatal("denial not audited")
	}
}

// --- proc registration ---

func TestRegisterProcFile(t *testing.T) {
	k := testKernel(t)
	if _, err := k.FS.Mkdir(vfs.RootCred, "/proc", 0o555, 0, 0); err != nil {
		t.Fatal(err)
	}
	var stored string
	err := k.RegisterProcFile("/proc/test", 0o600,
		func(vfs.Cred) ([]byte, error) { return []byte(stored), nil },
		func(c vfs.Cred, data []byte) error { stored = string(data); return nil })
	if err != nil {
		t.Fatal(err)
	}
	root := k.InitTask()
	if err := k.WriteFile(root, "/proc/test", []byte("policy")); err != nil {
		t.Fatal(err)
	}
	data, err := k.ReadFile(root, "/proc/test")
	if err != nil || string(data) != "policy" {
		t.Fatalf("proc: %q %v", data, err)
	}
	user := userTask(k, 1000, 100)
	if err := k.WriteFile(user, "/proc/test", []byte("evil")); err == nil {
		t.Fatal("user wrote root proc file")
	}
}
