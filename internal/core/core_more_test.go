package core_test

import (
	"strings"
	"testing"

	"protego/internal/core"
	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

func TestProcBindRead(t *testing.T) {
	m := protegoMachine(t)
	data, err := m.K.FS.ReadFile(vfs.RootCred, core.ProcBind)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "25 tcp /usr/sbin/exim4 Debian-exim\n") {
		t.Fatalf("bind proc read: %q", data)
	}
}

func TestSetgidSudoersGroupDelegation(t *testing.T) {
	// A sudoers rule can delegate a *group* target: "%<group>" in the
	// runas list, honored by SetgidCheck.
	m := protegoMachine(t)
	if err := procWrite(t, m, core.ProcDelegation, "bob ALL = (%www-data) NOPASSWD: ALL\n"); err != nil {
		t.Fatal(err)
	}
	bob := session(t, m, "bob")
	if err := m.K.Setgid(bob, world.GIDWWW); err != nil {
		t.Fatalf("delegated setgid: %v", err)
	}
	if bob.EGID() != world.GIDWWW {
		t.Fatalf("egid = %d", bob.EGID())
	}
	// charlie has no such rule and ops requires a password he won't give.
	charlie := session(t, m, "charlie")
	if err := m.K.Setgid(charlie, world.GIDWWW); err != errno.EPERM {
		t.Fatalf("undelegated setgid: %v", err)
	}
}

// TestSetgidDelegationNeedsAnAllRule: a group switch admits every command,
// so only a rule that permits every command delegates it, and that rule's
// NOPASSWD decides. With the usual layout, a password ALL row and a
// NOPASSWD row for one command, alice must give her password to switch to
// the shadow group whichever row comes last; the one-command row alone
// delegates no group switch.
func TestSetgidDelegationNeedsAnAllRule(t *testing.T) {
	const all = "alice ALL = (ALL) ALL\n"
	const ls = "alice ALL = (ALL) NOPASSWD: /bin/ls\n"
	for _, c := range []struct {
		name, rules, answer string
		prompts             int
		granted             bool
	}{
		{"ALL then NOPASSWD, wrong password", all + ls, "wrong", 1, false},
		{"ALL then NOPASSWD, her password", all + ls, world.AlicePassword, 1, true},
		{"NOPASSWD then ALL, wrong password", ls + all, "wrong", 1, false},
		{"NOPASSWD then ALL, her password", ls + all, world.AlicePassword, 1, true},
		{"NOPASSWD row alone", ls, world.AlicePassword, 0, false},
		{"NOPASSWD ALL row", "alice ALL = (ALL) NOPASSWD: ALL\n", "wrong", 0, true},
	} {
		m := protegoMachine(t)
		if err := procWrite(t, m, core.ProcDelegation, c.rules); err != nil {
			t.Fatal(err)
		}
		alice := session(t, m, "alice")
		prompts := 0
		alice.Asker = func(string) string { prompts++; return c.answer }
		err := m.K.Setgid(alice, world.GIDShadow)
		if granted := err == nil && alice.EGID() == world.GIDShadow; granted != c.granted || prompts != c.prompts {
			t.Errorf("%s: err=%v egid=%d prompts=%d, want granted=%v prompts=%d",
				c.name, err, alice.EGID(), prompts, c.granted, c.prompts)
		}
		if !c.granted && err != errno.EPERM {
			t.Errorf("%s: err=%v, want EPERM", c.name, err)
		}
	}
}

func TestSetgidUnknownGroupNoOpinion(t *testing.T) {
	m := protegoMachine(t)
	bob := session(t, m, "bob")
	if err := m.K.Setgid(bob, 9999); err != errno.EPERM {
		t.Fatalf("setgid to unknown gid: %v", err)
	}
}

func TestRouteDeleteOwnRouteGranted(t *testing.T) {
	m := protegoMachine(t)
	alice := session(t, m, "alice")
	// alice installs a route via the ppp policy path...
	code, _, errOut, _ := m.Run(alice, []string{userspace.BinPppd, "ppp0", "--route=192.168.42.0/24"}, nil)
	if code != 0 {
		t.Fatalf("pppd: %s", errOut)
	}
	// Another user may not delete it...
	bob := session(t, m, "bob")
	if err := m.K.DelRoute(bob, netstack.IPv4(192, 168, 42, 0), 24); err != errno.EPERM {
		t.Fatalf("bob deletes alice's route: %v", err)
	}
	// ...but she may delete her own.
	if err := m.K.DelRoute(alice, netstack.IPv4(192, 168, 42, 0), 24); err != nil {
		t.Fatalf("delete own route: %v", err)
	}
	// But not routes she does not own.
	root := session(t, m, "root")
	if err := m.K.AddRoute(root, netstack.Route{Dest: netstack.IPv4(172, 16, 0, 0), PrefixLen: 16, Iface: "eth0"}); err != nil {
		t.Fatal(err)
	}
	if err := m.K.DelRoute(alice, netstack.IPv4(172, 16, 0, 0), 16); err != errno.EPERM {
		t.Fatalf("delete root's route: %v", err)
	}
	// Deleting something nonexistent is no opinion -> EPERM for users.
	if err := m.K.DelRoute(alice, netstack.IPv4(1, 2, 3, 4), 32); err != errno.EPERM {
		t.Fatalf("delete missing route: %v", err)
	}
}

func TestModuleIdentity(t *testing.T) {
	m := protegoMachine(t)
	if m.Protego.Name() != "protego" {
		t.Fatalf("name: %q", m.Protego.Name())
	}
}

func TestVideoIoctlGranted(t *testing.T) {
	m := protegoMachine(t)
	alice := session(t, m, "alice")
	if err := m.K.Ioctl(alice, userspace.VideoDevice, kernel.VIDIOCSMODE, "640x480"); err != nil {
		t.Fatalf("KMS mode set: %v", err)
	}
}

func TestPppDetachGranted(t *testing.T) {
	m := protegoMachine(t)
	alice := session(t, m, "alice")
	if err := m.K.Ioctl(alice, userspace.PppDevice, kernel.PPPIOCATTACH, "ppp0"); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := m.K.Ioctl(alice, userspace.PppDevice, kernel.PPPIOCDETACH, "ppp0"); err != nil {
		t.Fatalf("detach: %v", err)
	}
	// After detach, bob can attach.
	bob := session(t, m, "bob")
	if err := m.K.Ioctl(bob, userspace.PppDevice, kernel.PPPIOCATTACH, "ppp0"); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
}

func TestUnknownIoctlNoOpinion(t *testing.T) {
	m := protegoMachine(t)
	alice := session(t, m, "alice")
	// An unknown command on a known device: no grant, handler ENOTTY.
	if err := m.K.Ioctl(alice, userspace.PppDevice, 0xDEAD, nil); err != errno.ENOTTY {
		t.Fatalf("unknown ioctl: %v", err)
	}
}
