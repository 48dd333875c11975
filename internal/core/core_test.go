package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"protego/internal/core"
	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

func protegoMachine(t *testing.T) *world.Machine {
	t.Helper()
	m, err := world.BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func session(t *testing.T, m *world.Machine, user string) *kernel.Task {
	t.Helper()
	s, err := m.Session(user)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// --- mount whitelist ---

// TestMountRulesFromFstab: monitord's sync pushes the user-mountable rows
// of /etc/fstab, and each keeps its user or users marker.
func TestMountRulesFromFstab(t *testing.T) {
	m := protegoMachine(t)
	fstab := `
/dev/sda1  /           ext4    defaults        0 1
/dev/cdrom /cdrom      iso9660 ro,user,noauto  0 0
/dev/sdb1  /media/usb  vfat    rw,users        0 0
`
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/fstab", []byte(fstab), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Monitor.SyncMounts(); err != nil {
		t.Fatal(err)
	}
	rules := m.Protego.MountRules()
	if len(rules) != 2 {
		t.Fatalf("rules = %d (root fs must be excluded)", len(rules))
	}
	cdrom := m.Protego.MountRow("/dev/cdrom", "/cdrom")
	usb := m.Protego.MountRow("/dev/sdb1", "/media/usb")
	if cdrom == nil || usb == nil {
		t.Fatalf("rules: %+v", rules)
	}
	if cdrom.HasOption("users") || !cdrom.HasOption("user") || !cdrom.HasOption("ro") {
		t.Fatalf("'user' entry: %+v", cdrom)
	}
	if !usb.HasOption("users") {
		t.Fatalf("'users' entry not marked: %+v", usb)
	}
}

func TestMountWhitelistMatching(t *testing.T) {
	m := protegoMachine(t)
	alice := session(t, m, "alice")
	// fstype "auto" on the request side matches a typed rule.
	if err := m.K.Mount(alice, "/dev/cdrom", "/cdrom", "auto", []string{"ro"}); err != nil {
		t.Fatalf("auto fstype: %v", err)
	}
	if err := m.K.Umount(alice, "/cdrom"); err != nil {
		t.Fatal(err)
	}
	// Wrong fstype is refused.
	if err := m.K.Mount(alice, "/dev/cdrom", "/cdrom", "ext4", nil); err != errno.EPERM {
		t.Fatalf("wrong fstype: %v", err)
	}
	// Wrong mountpoint is refused.
	if err := m.K.Mount(alice, "/dev/cdrom", "/tmp", "iso9660", nil); err != errno.EPERM {
		t.Fatalf("wrong point: %v", err)
	}
	// Wrong device is refused.
	if err := m.K.Mount(alice, "/dev/sdc1", "/cdrom", "iso9660", nil); err != errno.EPERM {
		t.Fatalf("wrong device: %v", err)
	}
	if m.Protego.Stats.MountDenials.Load() == 0 {
		t.Fatal("denials not counted")
	}
}

// --- /proc interface ---

func procWrite(t *testing.T, m *world.Machine, path, data string) error {
	t.Helper()
	ino, err := m.K.FS.Lookup(vfs.RootCred, path)
	if err != nil {
		t.Fatal(err)
	}
	_, write := m.K.FS.ProcHandlers(ino)
	return write(vfs.RootCred, []byte(data))
}

// TestProcMountsGrammar: /proc/protego/mounts takes /etc/fstab text and
// installs the first row of each (device, point) pair, points compared
// clean, when that row says user or users; a read renders each installed
// row as an fstab line.
func TestProcMountsGrammar(t *testing.T) {
	m := protegoMachine(t)
	for _, c := range []struct {
		name, fstab, want string
	}{
		{"user and users rows; others left out",
			"/dev/sda1 / ext4 defaults 0 1\n/dev/z /mnt auto users\n/dev/y /media/y vfat rw,user 0 0\n",
			"/dev/z /mnt auto users 0 0\n/dev/y /media/y vfat rw,user 0 0\n"},
		{"the point is cleaned", "/dev/z /mnt/./z ext4 ro,user 0 0\n", "/dev/z /mnt/z ext4 ro,user 0 0\n"},
		{"a non-user first row blocks a later user row",
			"/dev/z /mnt/z ext4 ro 0 0\n/dev/z /mnt/./z/ ext4 ro,user 0 0\n", ""},
		{"the first user row decides",
			"/dev/z /mnt ext4 ro,user 0 0\n/dev/z /mnt vfat users 0 0\n", "/dev/z /mnt ext4 ro,user 0 0\n"},
		{"no rows", "# empty\n", ""},
	} {
		if err := procWrite(t, m, core.ProcMounts, c.fstab); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, err := m.K.FS.ReadFile(vfs.RootCred, core.ProcMounts)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(data); got != c.want {
			t.Errorf("%s: read %q, want %q", c.name, got, c.want)
		}
	}
}

// TestProcBindGrammar: /proc/protego/bind takes /etc/bind text, each user
// name resolved to its uid, and reads back /etc/bind rows.
func TestProcBindGrammar(t *testing.T) {
	m := protegoMachine(t)
	if err := procWrite(t, m, core.ProcBind, "# ports\n25 tcp /usr/sbin/exim4 Debian-exim\n514 udp /usr/sbin/syslogd root\n"); err != nil {
		t.Fatal(err)
	}
	allocs := m.Protego.BindAllocations()
	if want := []string{"25 tcp /usr/sbin/exim4 Debian-exim", "514 udp /usr/sbin/syslogd root"}; !slices.Equal(allocs, want) {
		t.Fatalf("allocs: %v, want %v", allocs, want)
	}
	if err := procWrite(t, m, core.ProcBind, ""); err != nil {
		t.Fatal(err)
	}
	if len(m.Protego.BindAllocations()) != 0 {
		t.Fatal("empty /etc/bind text left allocations")
	}
}

// TestProcPolicyRejectsBadText: each policy file takes only its legacy
// file's text. Anything else, the old add/del/clear lines included, and
// an /etc/bind row naming an unknown user, is EINVAL naming the bad line,
// and the policy read back is the one before the write.
func TestProcPolicyRejectsBadText(t *testing.T) {
	m := protegoMachine(t)
	for _, c := range []struct {
		file, text, names string
	}{
		{core.ProcMounts, "/dev/z /mnt auto users 0 0\nbroken line\n", "fstab line 2"},
		{core.ProcMounts, "clear\n", "fstab line 1"},
		{core.ProcMounts, "add /dev/z /mnt auto - users\n", "fstab line 1"},
		{core.ProcBind, "99 tcp /b root\n0 tcp /b root\n", "bind line 2"},
		{core.ProcBind, "2000 tcp /b root\n", "bind line 1"},
		{core.ProcBind, "99 sctp /b root\n", "bind line 1"},
		{core.ProcBind, "99 tcp b root\n", "bind line 1"},
		{core.ProcBind, "99 tcp /b root\n99 tcp /c root\n", "bind line 2"},
		{core.ProcBind, "add 99 tcp /bin/thing 1000\n", "bind line 1"},
		{core.ProcBind, "99 tcp /b root\n98 udp /b ghost\n", `"98 udp /b ghost"`},
		{core.ProcDelegation, "root ALL = (ALL) ALL\nbroken =\n", "sudoers line 2"},
		{core.ProcPPP, "user-routes\ndevice ttyS0\n", "ppp options line 2"},
	} {
		before, err := m.K.FS.ReadFile(vfs.RootCred, c.file)
		if err != nil {
			t.Fatal(err)
		}
		err = procWrite(t, m, c.file, c.text)
		if !errno.Is(err, errno.EINVAL) || !strings.Contains(fmt.Sprint(err), c.names) {
			t.Errorf("%s <- %q: %v, want EINVAL naming %s", c.file, c.text, err, c.names)
		}
		if after, _ := m.K.FS.ReadFile(vfs.RootCred, c.file); string(after) != string(before) {
			t.Errorf("%s <- %q: policy changed to %q", c.file, c.text, after)
		}
	}
}

func TestProcDelegationRoundTrip(t *testing.T) {
	m := protegoMachine(t)
	if err := procWrite(t, m, core.ProcDelegation, "dave ALL = (root) NOPASSWD: /bin/ls\n"); err != nil {
		t.Fatal(err)
	}
	s := m.Protego.Sudoers()
	if len(s.Rules) != 1 || s.Rules[0].User != "dave" {
		t.Fatalf("rules: %+v", s.Rules)
	}
	data, err := m.K.FS.ReadFile(vfs.RootCred, core.ProcDelegation)
	if err != nil || !strings.Contains(string(data), "dave") {
		t.Fatalf("read: %q %v", data, err)
	}
}

func TestProcWritesRequireRoot(t *testing.T) {
	m := protegoMachine(t)
	alice := session(t, m, "alice")
	// DAC already blocks (0600 root), so go through the kernel path.
	if err := m.K.WriteFile(alice, core.ProcMounts, []byte("/dev/z /mnt auto users 0 0\n")); err == nil {
		t.Fatal("unprivileged policy write accepted")
	}
}

func TestProcStatus(t *testing.T) {
	m := protegoMachine(t)
	data, err := m.K.FS.ReadFile(vfs.RootCred, core.ProcStatus)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"protego: enabled", "mount-whitelist-entries: 2", "delegation-rules:"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("status missing %q: %s", want, data)
		}
	}
}

func TestProcPPPRoundTrip(t *testing.T) {
	m := protegoMachine(t)
	if err := procWrite(t, m, core.ProcPPP, "device /dev/ppp\nuser-routes\nsafe-param foo\n"); err != nil {
		t.Fatal(err)
	}
	data, err := m.K.FS.ReadFile(vfs.RootCred, core.ProcPPP)
	if err != nil || !strings.Contains(string(data), "safe-param foo") || !strings.Contains(string(data), "user-routes") {
		t.Fatalf("ppp read: %q %v", data, err)
	}
}

// --- raw sockets (referenced by the Table 4 catalog) ---

func TestRawSocketFiltering(t *testing.T) {
	m := protegoMachine(t)
	alice := session(t, m, "alice")
	sock, err := m.K.Socket(alice, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_ICMP)
	if err != nil {
		t.Fatal(err)
	}
	// Benign ICMP passes.
	echo := &netstack.Packet{Dst: m.K.Net.HostIP(), Proto: netstack.IPPROTO_ICMP,
		ICMPType: netstack.ICMPEchoRequest, Payload: []byte("hi")}
	if err := m.K.SendTo(alice, sock, echo); err != nil {
		t.Fatalf("icmp: %v", err)
	}
	// Fabricated TCP is dropped.
	forged := &netstack.Packet{Dst: m.K.Net.HostIP(), Proto: netstack.IPPROTO_TCP,
		SrcPort: 12345, DstPort: 80}
	if err := m.K.SendTo(alice, sock, forged); err != errno.EPERM {
		t.Fatalf("forged tcp: %v", err)
	}
	// Spoofing another socket's endpoint is dropped even for root's raw
	// sockets.
	root := session(t, m, "root")
	victim, err := m.K.Socket(alice, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.Bind(alice, victim, 8080); err != nil {
		t.Fatal(err)
	}
	rootRaw, err := m.K.Socket(root, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_RAW)
	if err != nil {
		t.Fatal(err)
	}
	spoof := &netstack.Packet{Dst: m.K.Net.HostIP(), Proto: netstack.IPPROTO_TCP,
		SrcPort: 8080, DstPort: 99}
	if err := m.K.SendTo(root, rootRaw, spoof); err != errno.EPERM {
		t.Fatalf("spoofed from root raw: %v", err)
	}
}

func TestRawSocketAblationToggle(t *testing.T) {
	m := protegoMachine(t)
	m.Protego.SetAllowUnprivRaw(false)
	alice := session(t, m, "alice")
	if _, err := m.K.Socket(alice, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_ICMP); err != errno.EPERM {
		t.Fatalf("toggle ignored: %v", err)
	}
}

// --- delegation internals ---

func TestPendingSetuidLifecycle(t *testing.T) {
	m := protegoMachine(t)
	charlie := session(t, m, "charlie") // %wheel NOPASSWD: /bin/ls
	if err := m.K.Setuid(charlie, 0); err != nil {
		t.Fatalf("deferred setuid: %v", err)
	}
	if uid, ok := core.PendingSetuid(charlie); !ok || uid != 0 {
		t.Fatalf("pending: %d %v", uid, ok)
	}
	// Creds unchanged until exec.
	if charlie.EUID() != world.UIDCharlie {
		t.Fatal("privilege before exec")
	}
	// Exec of the whitelisted command applies the pending transition.
	var sawRoot bool
	probe := "/bin/probe-pending"
	m.K.RegisterBinary(probe, func(k *kernel.Kernel, t *kernel.Task) int {
		sawRoot = t.EUID() == 0
		return 0
	})
	if err := m.K.FS.WriteFile(vfs.RootCred, probe, []byte("ELF"), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	// probe is NOT whitelisted: exec must fail with EPERM (no terminal
	// for the su fallback).
	if _, err := m.K.Exec(charlie, probe, []string{probe}, nil); err != errno.EPERM {
		t.Fatalf("non-whitelisted exec: %v", err)
	}
	if _, ok := core.PendingSetuid(charlie); ok {
		t.Fatal("pending survived failed exec")
	}
	// A fresh deferred transition followed by the whitelisted command.
	if err := m.K.Setuid(charlie, 0); err != nil {
		t.Fatal(err)
	}
	code, err := m.K.Exec(charlie, "/bin/ls", []string{"/bin/ls", "/tmp"}, nil)
	if err != nil || code != 0 {
		t.Fatalf("whitelisted exec: code=%d err=%v", code, err)
	}
	_ = sawRoot
}

func TestEnvSanitizedAcrossDeferredTransition(t *testing.T) {
	m := protegoMachine(t)
	charlie := session(t, m, "charlie")
	charlie.Setenv("LD_PRELOAD", "/tmp/evil.so")
	charlie.Setenv("TERM", "vt100")
	var env map[string]string
	// /bin/ls is whitelisted; observe its environment via a wrapper.
	m.K.RegisterBinary("/bin/ls", func(k *kernel.Kernel, t *kernel.Task) int {
		env = t.Env()
		return 0
	})
	if err := m.K.Setuid(charlie, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.K.Exec(charlie, "/bin/ls", []string{"/bin/ls"}, copyEnv(charlie.Env())); err != nil {
		t.Fatal(err)
	}
	if env["LD_PRELOAD"] != "" {
		t.Fatal("LD_PRELOAD crossed the transition")
	}
	if env["TERM"] != "vt100" {
		t.Fatal("env_keep variable lost")
	}
}

// TestDeferredExecRefusals: a deferred transition whose exec is refused
// says why. A binary no rule permits fails with EPERM; a permitted binary
// whose caller fails to authenticate fails with the authentication
// service's EACCES. Both answers to the su fallback's prompt are wrong.
func TestDeferredExecRefusals(t *testing.T) {
	for _, c := range []struct {
		user, cmd string
		want      error
	}{
		{"charlie", userspace.BinID, errno.EPERM}, // %wheel: /bin/ls only
		{"alice", userspace.BinID, errno.EACCES},  // her password rule
		{"bob", userspace.BinSudoeditHelper, errno.EACCES},
	} {
		m := protegoMachine(t)
		task := session(t, m, c.user)
		task.Asker = world.AnswerWith("wrong")
		if err := m.K.Setuid(task, 0); err != nil {
			t.Fatalf("%s: deferred setuid: %v", c.user, err)
		}
		if _, err := m.K.Exec(task, c.cmd, []string{c.cmd}, nil); err != c.want {
			t.Errorf("%s exec %s: %v, want %v", c.user, c.cmd, err, c.want)
		}
		if task.EUID() == 0 {
			t.Errorf("%s: root after a refused exec", c.user)
		}
	}
}

func copyEnv(in map[string]string) map[string]string {
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// --- recency ---

func TestRecencyExpiryForcesReauth(t *testing.T) {
	m := protegoMachine(t)
	now := time.Now()
	m.Auth.SetClock(func() time.Time { return now })
	alice := session(t, m, "alice")
	prompts := 0
	alice.Asker = func(string) string { prompts++; return world.AlicePassword }
	// Each step is sudo's setuid then exec of a command that only alice's
	// password rule permits, so the exec is where she authenticates.
	delegate := func(task *kernel.Task) {
		t.Helper()
		if err := m.K.Setuid(task, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.K.Exec(task, userspace.BinID, []string{userspace.BinID}, nil); err != nil {
			t.Fatal(err)
		}
		if task.EUID() != 0 {
			t.Fatalf("euid after exec = %d", task.EUID())
		}
	}
	// forkAlice starts a fresh alice task from the session, which is
	// root after its exec and keeps its authentication stamp.
	forkAlice := func() *kernel.Task {
		child := m.K.Fork(alice)
		child.SetUserCreds(kernel.UserCreds(world.UIDAlice, world.GIDUsers, world.GIDWheel, world.GIDOps))
		return child
	}
	delegate(alice)
	if prompts != 1 {
		t.Fatalf("prompts = %d", prompts)
	}
	// Do it again within the window from a fresh fork: stamp inherited.
	delegate(forkAlice())
	if prompts != 1 {
		t.Fatalf("re-prompted within window: %d", prompts)
	}
	// After the window, authentication is demanded again.
	now = now.Add(6 * time.Minute)
	delegate(forkAlice())
	if prompts != 2 {
		t.Fatalf("expiry ignored: prompts = %d", prompts)
	}
}

// --- identity cache ---

func TestIdentityCacheInvalidation(t *testing.T) {
	m := protegoMachine(t)
	if gid, groups, ok := m.Protego.ResolveGroups(world.UIDAlice); !ok || gid != world.GIDUsers || len(groups) != 2 {
		t.Fatalf("alice groups: %d %v %v", gid, groups, ok)
	}
	// Add dave behind the cache's back.
	data, _ := m.K.FS.ReadFile(vfs.RootCred, "/etc/passwd")
	updated := string(data) + "dave:x:1003:100:Dave:/home/dave:/bin/sh\n"
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/passwd", []byte(updated), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := m.Protego.ResolveGroups(1003); ok {
		t.Fatal("stale cache resolved unknown uid")
	}
	m.Protego.InvalidateIdentity()
	if _, _, ok := m.Protego.ResolveGroups(1003); !ok {
		t.Fatal("invalidation did not refresh")
	}
}

// --- file grants ---

func TestFileGrantOnlyForWhitelistedBinary(t *testing.T) {
	m := protegoMachine(t)
	alice := session(t, m, "alice")
	// Reading the host key via the ssh-keysign binary works (world test
	// covers it); directly it must not, nor may another binary gain
	// write access.
	if _, err := m.K.ReadFile(alice, userspace.HostKeyPath); err == nil {
		t.Fatal("direct host key read")
	}
	if err := m.K.WriteFile(alice, userspace.HostKeyPath, []byte("evil")); err == nil {
		t.Fatal("host key write")
	}
}

// --- Table 4 catalog ---

func TestCatalogWellFormed(t *testing.T) {
	if len(core.Catalog) != 10 {
		t.Fatalf("catalog rows = %d, want 10 (Table 4)", len(core.Catalog))
	}
	for _, e := range core.Catalog {
		if e.Interface == "" || e.KernelPolicy == "" || e.SystemPolicy == "" || e.Approach == "" {
			t.Errorf("incomplete row: %+v", e)
		}
		if len(e.UsedBy) == 0 {
			t.Errorf("%s: no users", e.Interface)
		}
	}
	out := core.FormatCatalog()
	if !strings.Contains(out, "mount, umount") || !strings.Contains(out, "KMS") {
		t.Fatalf("render: %.200q", out)
	}
}
