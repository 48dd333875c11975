package userspace_test

import (
	"strings"
	"testing"

	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// run executes a binary as the given user on a fresh machine of each mode
// and returns the Protego result (callers that care about the baseline use
// runOn directly).
func runOn(t *testing.T, mode kernel.Mode, user string, asker func(string) string, argv ...string) (int, string, string) {
	t.Helper()
	m, err := world.Build(world.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Session(user)
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut, _ := m.Run(sess, argv, asker)
	return code, out, errOut
}

func bothModes(t *testing.T, fn func(t *testing.T, mode kernel.Mode)) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) { fn(t, mode) })
	}
}

// --- usage errors (the exhaustive-flag half of Table 7's coverage) ---

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{userspace.BinUmount},
		{userspace.BinPing},
		{userspace.BinPing, "-c"},
		{userspace.BinPing, "-c", "-3", "10.0.0.2"},
		{userspace.BinTraceroute},
		{userspace.BinArping},
		{userspace.BinMtr},
		{userspace.BinSudo},
		{userspace.BinSudoedit},
		{userspace.BinNewgrp},
		{userspace.BinNewgrp, "a", "b"},
		{userspace.BinGpasswd},
		{userspace.BinPasswd, "x", "y"},
		{userspace.BinChsh},
		{userspace.BinChsh, "-x", "/bin/sh"},
		{userspace.BinChfn},
		{userspace.BinLogin},
		{userspace.BinPppd},
		{userspace.BinExim},
		{userspace.BinExim, "bogus"},
		{userspace.BinExim, "serve"},
		{userspace.BinExim, "serve", "NaN"},
		{userspace.BinExim, "send", "rcpt"},
		{userspace.BinDmcrypt},
		{userspace.BinSSHKeysign},
		{userspace.BinLpr},
		{userspace.BinHttpd},
		{userspace.BinHttpd, "serve", "NaN"},
		{userspace.BinMount, "-t"},
		{userspace.BinMount, "-o"},
		{userspace.BinVipw},
	}
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		for _, argv := range cases {
			code, _, errOut := runOn(t, mode, "alice", nil, argv...)
			if code == 0 {
				t.Errorf("%v: expected failure, got success", argv)
			}
			if errOut == "" {
				t.Errorf("%v: no diagnostic", argv)
			}
		}
	})
}

// --- id / ls / sh / lpr ---

func TestIDOutput(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		code, out, _ := runOn(t, mode, "alice", nil, userspace.BinID)
		if code != 0 || !strings.Contains(out, "uid=1000 euid=1000") {
			t.Fatalf("id: %d %q", code, out)
		}
	})
}

func TestLs(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		code, out, _ := runOn(t, mode, "alice", nil, userspace.BinLs, "/etc")
		if code != 0 || !strings.Contains(out, "fstab") {
			t.Fatalf("ls: %d %q", code, out)
		}
		code, _, errOut := runOn(t, mode, "alice", nil, userspace.BinLs, "/nosuch")
		if code == 0 || errOut == "" {
			t.Fatal("ls of missing dir")
		}
		// Permission-denied listing.
		code, _, _ = runOn(t, mode, "bob", nil, userspace.BinLs, "/home/alice")
		if code == 0 {
			t.Fatal("bob listed alice's home")
		}
	})
}

func TestShDashC(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		code, out, _ := runOn(t, mode, "alice", nil, userspace.BinSh, "-c", userspace.BinID)
		if code != 0 || !strings.Contains(out, "uid=1000") {
			t.Fatalf("sh -c id: %d %q", code, out)
		}
		// Non-path command is a no-op success (minimal shell).
		code, _, _ = runOn(t, mode, "alice", nil, userspace.BinSh, "-c", "true")
		if code != 0 {
			t.Fatal("sh -c true")
		}
		// Missing binary.
		code, _, _ = runOn(t, mode, "alice", nil, userspace.BinSh, "-c", "/bin/nothere")
		if code != 127 {
			t.Fatalf("sh -c missing: %d", code)
		}
	})
}

func TestLprQueues(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		alice, _ := m.Session("alice")
		if err := m.K.WriteFile(alice, "/tmp/j.txt", []byte("12345")); err != nil {
			t.Fatal(err)
		}
		code, out, errOut, _ := m.Run(alice, []string{userspace.BinLpr, "/tmp/j.txt"}, nil)
		if code != 0 {
			t.Fatalf("lpr: %s", errOut)
		}
		if !strings.Contains(out, "request id") {
			t.Fatalf("lpr out: %q", out)
		}
		queue, _ := m.K.FS.ReadFile(vfs.RootCred, "/var/spool/lpd/queue")
		if !strings.Contains(string(queue), "uid=1000 bytes=5") {
			t.Fatalf("queue: %q", queue)
		}
		// Missing file.
		code, _, _, _ = m.Run(alice, []string{userspace.BinLpr, "/tmp/none"}, nil)
		if code == 0 {
			t.Fatal("lpr of missing file")
		}
	})
}

// --- mount list / fusermount ---

func TestMountListsTable(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		alice, _ := m.Session("alice")
		if code, _, e, _ := m.Run(alice, []string{userspace.BinMount, "/dev/cdrom", "/cdrom"}, nil); code != 0 {
			t.Fatalf("mount: %s", e)
		}
		code, out, _, _ := m.Run(alice, []string{userspace.BinMount}, nil)
		if code != 0 || !strings.Contains(out, "/dev/cdrom /cdrom iso9660") {
			t.Fatalf("mount list: %d %q", code, out)
		}
	})
}

func TestFusermount(t *testing.T) {
	// Policy: a user may FUSE-mount only over a directory she owns —
	// enforced by the trusted binary on the baseline and by the kernel
	// on Protego.
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		alice, _ := m.Session("alice")
		// Not alice's directory: refused.
		code, _, _, _ := m.Run(alice, []string{userspace.BinFusermount, "/mnt"}, nil)
		if code == 0 {
			t.Fatal("fuse mount over root-owned dir succeeded")
		}
		// Her own directory: permitted, and unmountable again.
		if err := m.K.Mkdir(alice, "/home/alice/fusepoint", 0o755); err != nil {
			t.Fatal(err)
		}
		code, _, errOut, _ := m.Run(alice, []string{userspace.BinFusermount, "/home/alice/fusepoint"}, nil)
		if code != 0 {
			t.Fatalf("fuse mount over own dir: %s", errOut)
		}
		if m.K.FS.MountAt("/home/alice/fusepoint") == nil {
			t.Fatal("fuse mount missing from table")
		}
		code, _, errOut, _ = m.Run(alice, []string{userspace.BinFusermount, "-u", "/home/alice/fusepoint"}, nil)
		if code != 0 {
			t.Fatalf("fusermount -u: %s", errOut)
		}
	})
}

func TestFusermountUsage(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		code, _, _ := runOn(t, mode, "alice", nil, userspace.BinFusermount, "-u")
		if code == 0 {
			t.Fatal("bad usage accepted")
		}
	})
}

// --- vipw ---

func TestVipwRootOnly(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		code, _, _ := runOn(t, mode, "alice", nil, userspace.BinVipw, "-s", "alice", "/bin/zsh")
		if code == 0 {
			t.Fatal("vipw by non-root")
		}
	})
}

func TestVipwEditsShell(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		root, _ := m.Session("root")
		code, _, errOut, _ := m.Run(root, []string{userspace.BinVipw, "-s", "bob", "/bin/zsh"}, nil)
		if code != 0 {
			t.Fatalf("vipw: %s", errOut)
		}
		if mode == kernel.ModeProtego {
			if err := m.Monitor.SyncAccountsFromFragments(); err != nil {
				t.Fatal(err)
			}
		}
		u, err := m.DB.LookupUser("bob")
		if err != nil || u.Shell != "/bin/zsh" {
			t.Fatalf("shell: %+v %v", u, err)
		}
		// Unknown user.
		code, _, _, _ = m.Run(root, []string{userspace.BinVipw, "-s", "ghost", "/bin/zsh"}, nil)
		if code == 0 {
			t.Fatal("vipw of ghost user")
		}
	})
}

// --- login ---

func TestLoginFlow(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		code, out, _ := runOn(t, mode, "root", world.AnswerWith(world.AlicePassword), userspace.BinLogin, "alice")
		if code != 0 || !strings.Contains(out, "Welcome, alice") {
			t.Fatalf("login: %d %q", code, out)
		}
		code, _, _ = runOn(t, mode, "root", world.AnswerWith("bad"), userspace.BinLogin, "alice")
		if code == 0 {
			t.Fatal("wrong password login")
		}
		code, _, _ = runOn(t, mode, "root", nil, userspace.BinLogin, "ghost")
		if code == 0 {
			t.Fatal("login of ghost user")
		}
		// login requires root.
		code, _, _ = runOn(t, mode, "bob", world.AnswerWith(world.AlicePassword), userspace.BinLogin, "alice")
		if code == 0 {
			t.Fatal("non-root login")
		}
	})
}

// --- traceroute / arping output ---

func TestTracerouteOutput(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		code, out, errOut := runOn(t, mode, "alice", nil, userspace.BinTraceroute, "10.0.0.2")
		if code != 0 {
			t.Fatalf("traceroute: %s", errOut)
		}
		if !strings.Contains(out, "traceroute to 10.0.0.2") {
			t.Fatalf("out: %q", out)
		}
		code, _, _ = runOn(t, mode, "alice", nil, userspace.BinTraceroute, "bogus-host")
		if code == 0 {
			t.Fatal("traceroute to bogus host")
		}
	})
}

func TestArpingOutput(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		code, out, errOut := runOn(t, mode, "alice", nil, userspace.BinArping, "10.0.0.2")
		if code != 0 {
			t.Fatalf("arping: %s", errOut)
		}
		if !strings.Contains(out, "ARPING") {
			t.Fatalf("out: %q", out)
		}
	})
}

// --- dmcrypt error path ---

func TestDmcryptUnknownDevice(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		code, _, _ := runOn(t, mode, "alice", nil, userspace.BinDmcrypt, "/dev/dm-9")
		if code == 0 {
			t.Fatal("unknown dm device accepted")
		}
	})
}

// --- pppd error paths ---

func TestPppdUnknownIface(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		code, _, _ := runOn(t, mode, "alice", nil, userspace.BinPppd, "ppp9")
		if code == 0 {
			t.Fatal("attach to missing iface")
		}
	})
}

func TestPppdBadRoute(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		for _, bad := range []string{"--route=notanip/24", "--route=10.0.0.0", "--route=10.0.0.0/99", "--mystery"} {
			code, _, _ := runOn(t, mode, "alice", nil, userspace.BinPppd, "ppp0", bad)
			if code == 0 {
				t.Errorf("pppd accepted %q", bad)
			}
		}
	})
}

// TestPppdMalformedOptionsRefused: the baseline pppd reads
// /etc/ppp/options with the kernel's parser, so a malformed line refuses
// the user's session instead of being skipped.
func TestPppdMalformedOptionsRefused(t *testing.T) {
	m, err := world.Build(world.Options{Mode: kernel.ModeLinux})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := m.Session("alice")
	if err != nil {
		t.Fatal(err)
	}
	options := "device /dev/ppp\nuser-routes\ndevice ttyS0\n"
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/ppp/options", []byte(options), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut, _ := m.Run(alice, []string{userspace.BinPppd, "ppp0"}, nil); code == 0 || !strings.Contains(errOut, "device needs an absolute path") {
		t.Fatalf("pppd under a malformed options file: exit %d, %q", code, errOut)
	}
	if m.K.Net.Iface("ppp0").InUse {
		t.Fatal("ppp0 attached")
	}
}

// --- iptables parsing ---

func TestIptablesAppendAndFlush(t *testing.T) {
	m, err := world.BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	root, _ := m.Session("root")
	code, _, errOut, _ := m.Run(root, []string{userspace.BinIptables, "-A", "OUTPUT", "-p", "udp", "-m", "spoofed", "-j", "DROP"}, nil)
	if code != 0 {
		t.Fatalf("append: %s", errOut)
	}
	_, out, _, _ := m.Run(root, []string{userspace.BinIptables, "-S"}, nil)
	if !strings.Contains(out, "-p udp") {
		t.Fatalf("rule missing: %q", out)
	}
	code, _, _, _ = m.Run(root, []string{userspace.BinIptables, "-F", "OUTPUT"}, nil)
	if code != 0 {
		t.Fatal("flush failed")
	}
	_, out, _, _ = m.Run(root, []string{userspace.BinIptables, "-S"}, nil)
	if strings.Contains(out, "unprivraw") {
		t.Fatalf("flush incomplete: %q", out)
	}
	// Parse errors.
	for _, argv := range [][]string{
		{userspace.BinIptables, "-A"},
		{userspace.BinIptables, "-A", "OUTPUT", "-p"},
		{userspace.BinIptables, "-A", "OUTPUT", "-p", "sctp"},
		{userspace.BinIptables, "-F"},
		{userspace.BinIptables, "-X", "OUTPUT"},
	} {
		code, _, _, _ := m.Run(root, argv, nil)
		if code == 0 {
			t.Errorf("accepted %v", argv)
		}
	}
}

// --- newgrp starts a shell with the new gid ---

func TestNewgrpShellGid(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		code, out, errOut := runOn(t, mode, "alice", nil, userspace.BinNewgrp, "ops")
		if code != 0 {
			t.Fatalf("newgrp: %s", errOut)
		}
		if !strings.Contains(out, "gid=20") {
			t.Fatalf("gid output: %q", out)
		}
	})
}

// --- ssh-keysign determinism ---

func TestSSHKeysignDeterministic(t *testing.T) {
	bothModes(t, func(t *testing.T, mode kernel.Mode) {
		_, out1, _ := runOn(t, mode, "alice", nil, userspace.BinSSHKeysign, "data")
		_, out2, _ := runOn(t, mode, "alice", nil, userspace.BinSSHKeysign, "data")
		if out1 != out2 || !strings.HasPrefix(out1, "SIG:") {
			t.Fatalf("signatures: %q %q", out1, out2)
		}
		_, other, _ := runOn(t, mode, "alice", nil, userspace.BinSSHKeysign, "different")
		if other == out1 {
			t.Fatal("signature ignores input")
		}
	})
}

// --- cross-mode: signatures agree (same key, same hash) ---

func TestSSHKeysignCrossModeEqual(t *testing.T) {
	_, linuxSig, _ := runOn(t, kernel.ModeLinux, "alice", nil, userspace.BinSSHKeysign, "payload")
	_, protegoSig, _ := runOn(t, kernel.ModeProtego, "alice", nil, userspace.BinSSHKeysign, "payload")
	if linuxSig != protegoSig {
		t.Fatalf("cross-mode signatures differ: %q %q", linuxSig, protegoSig)
	}
}
