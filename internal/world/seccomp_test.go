package world

import (
	"strings"
	"testing"

	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/seccomp"
	"protego/internal/userspace"
)

// restrictedInitSet builds a machine image whose session tasks (which
// inherit init's binary path until they exec) are allowed everything
// except the given syscalls; the machine union stays full so exec-ed
// children are unconstrained.
func restrictedInitSet(forbid ...kernel.Sysno) *seccomp.ProfileSet {
	set := seccomp.NewSet(kernel.ModeProtego.String())
	set.Machine = seccomp.FullProfile("")
	p := seccomp.FullProfile("/sbin/init")
	for _, sn := range forbid {
		p.Forbid(sn)
	}
	set.Add(p)
	return set
}

func seccompMachine(t *testing.T, set *seccomp.ProfileSet) *Machine {
	t.Helper()
	m, err := Build(Options{Mode: kernel.ModeProtego})
	if err != nil {
		t.Fatal(err)
	}
	m.InstallSeccomp(set, false)
	if m.Seccomp == nil || !m.K.LSM.SyscallMediated() {
		t.Fatal("InstallSeccomp did not install the module and arm the gate")
	}
	return m
}

// filterProfile reads the profile in the task's syscall-filter slot.
func filterProfile(tk *kernel.Task) *seccomp.Profile {
	v, _ := tk.SyscallFilter()
	p, _ := v.(*seccomp.Profile)
	return p
}

// TestSeccompForkInheritExecSwap pins the profile lifecycle: exec installs
// the new image's profile in the task's filter slot, fork copies the slot
// to the child, and exec into an unprofiled binary clears it so the task
// falls back to the machine union.
func TestSeccompForkInheritExecSwap(t *testing.T) {
	set := seccomp.NewSet(kernel.ModeProtego.String())
	set.Machine = seccomp.FullProfile("")
	sh := seccomp.FullProfile(userspace.BinSh)
	sh.Forbid(kernel.SysKill)
	set.Add(sh)

	m := seccompMachine(t, set)
	k := m.K
	sess, err := m.Session("root")
	if err != nil {
		t.Fatal(err)
	}

	// Pre-exec: /sbin/init is unprofiled → machine union → allowed.
	if err := k.Kill(sess, sess.PID(), 15); err != nil {
		t.Fatalf("kill under machine union: %v", err)
	}

	child := k.Fork(sess)
	if code, err := k.Exec(child, userspace.BinSh, []string{userspace.BinSh, "-c", "true"}, nil); err != nil || code != 0 {
		t.Fatalf("exec sh: code=%d err=%v", code, err)
	}
	if p := filterProfile(child); p == nil || p.Binary != userspace.BinSh {
		t.Fatalf("exec did not install the sh profile: %v", p)
	}
	if err := k.Kill(child, child.PID(), 15); !errno.Is(err, errno.ENOSYS) {
		t.Fatalf("kill outside sh profile: err=%v, want ENOSYS", err)
	}

	// Fork inherits the slot: the grandchild is still confined to the sh
	// profile even though it never exec-ed.
	grand := k.Fork(child)
	if err := k.Kill(grand, grand.PID(), 15); !errno.Is(err, errno.ENOSYS) {
		t.Fatalf("kill in forked child of sh: err=%v, want ENOSYS", err)
	}

	// Exec into an unprofiled binary clears the slot → machine union again.
	if code, err := k.Exec(grand, userspace.BinID, nil, nil); err != nil || code != 0 {
		t.Fatalf("exec id: code=%d err=%v", code, err)
	}
	if p := filterProfile(grand); p != nil {
		t.Fatalf("exec into unprofiled binary left a stale profile: %v", p.Binary)
	}
	if err := k.Kill(grand, grand.PID(), 15); err != nil {
		t.Fatalf("kill after swap back to machine union: %v", err)
	}
}

// TestSeccompFailClosed: an out-of-profile syscall must return ENOSYS
// through the unified errno helpers and leave the machine's fingerprint
// unchanged, and the identical operation must succeed on an unarmed clone
// of the Protego image — the same discipline the fault-injection error
// paths are held to.
func TestSeccompFailClosed(t *testing.T) {
	cases := []struct {
		name   string
		forbid kernel.Sysno
		op     func(k *kernel.Kernel, tk *kernel.Task) error
	}{
		{"mkdir", kernel.SysMkdir,
			func(k *kernel.Kernel, tk *kernel.Task) error {
				return k.Mkdir(tk, "/tmp/seccomp-dir", 0o755)
			}},
		{"writefile", kernel.SysWriteFile,
			func(k *kernel.Kernel, tk *kernel.Task) error {
				return k.WriteFile(tk, "/tmp/seccomp-file", []byte("x"))
			}},
		{"socket", kernel.SysSocket,
			func(k *kernel.Kernel, tk *kernel.Task) error {
				s, err := k.Socket(tk, netstack.AF_INET, netstack.SOCK_DGRAM, netstack.IPPROTO_UDP)
				if err == nil {
					_ = k.CloseSocket(tk, s)
				}
				return err
			}},
		{"unlink", kernel.SysUnlink,
			func(k *kernel.Kernel, tk *kernel.Task) error {
				return k.Unlink(tk, "/etc/motd")
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := seccompMachine(t, restrictedInitSet(c.forbid))
			k := m.K
			sess, err := m.Session("root")
			if err != nil {
				t.Fatal(err)
			}
			before := m.Fingerprint()
			err = c.op(k, sess)
			if err == nil {
				t.Fatalf("expected ENOSYS, got success")
			}
			if !errno.Is(err, errno.ENOSYS) {
				t.Fatalf("error %v does not unwrap to ENOSYS", err)
			}
			if errno.Of(err) != errno.ENOSYS {
				t.Fatalf("errno.Of(%v) = %v, want ENOSYS", err, errno.Of(err))
			}
			if m.Fingerprint() != before {
				t.Fatal("denied syscall changed the machine's state")
			}
			// The denial is the gate's alone: the same operation succeeds
			// on an unarmed machine.
			snap, err := Golden(kernel.ModeProtego)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := snap.Clone()
			if err != nil {
				t.Fatal(err)
			}
			plainSess, err := plain.Session("root")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.op(plain.K, plainSess); err != nil {
				t.Fatalf("operation failing on an unarmed clone: %v", err)
			}
		})
	}
}

// TestSeccompDecisionsInTraceStats: TaskSyscall outcomes must be visible
// in /proc/trace/stats — denials as decision counters attributed to the
// seccomp module, unanimous allows through the lsm.syscall.allow
// fast-path counter.
func TestSeccompDecisionsInTraceStats(t *testing.T) {
	m := seccompMachine(t, restrictedInitSet(kernel.SysMkdir))
	k := m.K
	sess, err := m.Session("root")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Mkdir(sess, "/tmp/denied", 0o755); !errno.Is(err, errno.ENOSYS) {
		t.Fatalf("mkdir: err=%v, want ENOSYS", err)
	}
	if _, err := k.ReadFile(sess, "/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	stats, err := k.ReadFile(sess, kernel.ProcTraceStats)
	if err != nil {
		t.Fatal(err)
	}
	text := string(stats)
	if !strings.Contains(text, "lsm.syscall.allow") {
		t.Error("stats missing the lsm.syscall.allow fast-path counter")
	}
	var denyLine bool
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "TaskSyscall") &&
			strings.Contains(line, "seccomp") && strings.Contains(line, "deny") {
			denyLine = true
		}
	}
	if !denyLine {
		t.Errorf("stats missing the seccomp TaskSyscall deny counter:\n%s", text)
	}
}

// TestSeccompSurvivesSnapshotClone: a stamped clone keeps the parent's
// profiles (shared by reference), its armed gate, and its denials.
func TestSeccompSurvivesSnapshotClone(t *testing.T) {
	set := restrictedInitSet(kernel.SysMkdir)
	parent := seccompMachine(t, set)
	snap := parent.Snapshot()
	clone, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.Seccomp == nil {
		t.Fatal("clone lost the seccomp module")
	}
	if clone.Seccomp.Set() != set {
		t.Fatal("clone's module does not share the parent's profile set")
	}
	if !clone.K.LSM.SyscallMediated() {
		t.Fatal("clone's syscall gate is disarmed")
	}
	for name, m := range map[string]*Machine{"parent": parent, "clone": clone} {
		sess, err := m.Session("root")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.K.Mkdir(sess, "/tmp/post-clone", 0o755); !errno.Is(err, errno.ENOSYS) {
			t.Fatalf("%s: mkdir err=%v, want ENOSYS", name, err)
		}
		if _, err := m.K.ReadFile(sess, "/etc/passwd"); err != nil {
			t.Fatalf("%s: allowed syscall failed: %v", name, err)
		}
	}
}
