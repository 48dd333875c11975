package world

import (
	"strings"
	"testing"
	"time"

	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/userspace"
	"protego/internal/vfs"
)

// bothModes runs a scenario against the baseline and Protego images — the
// functional-equivalence methodology of §5.3 ("we validate that the
// utilities have the same output and effects on both systems").
func bothModes(t *testing.T, fn func(t *testing.T, m *Machine)) {
	t.Helper()
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			m, err := Build(Options{Mode: mode})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			fn(t, m)
		})
	}
}

func session(t *testing.T, m *Machine, user string) *kernel.Task {
	t.Helper()
	s, err := m.Session(user)
	if err != nil {
		t.Fatalf("session %s: %v", user, err)
	}
	return s
}

func TestBuildBothModes(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		if !m.K.FS.Exists(vfs.RootCred, "/etc/fstab") {
			t.Fatal("missing /etc/fstab")
		}
		ino, err := m.K.FS.Lookup(vfs.RootCred, userspace.BinMount)
		if err != nil {
			t.Fatalf("mount binary: %v", err)
		}
		wantSetuid := m.K.Mode == kernel.ModeLinux
		if ino.Mode.IsSetuid() != wantSetuid {
			t.Fatalf("mount setuid bit = %v, want %v (mode %s)", ino.Mode.IsSetuid(), wantSetuid, m.K.Mode)
		}
		if ip := m.K.Net.HostIP(); ip != netstack.IPv4(10, 0, 0, 2) {
			t.Fatalf("host IP = %v, want 10.0.0.2", ip)
		}
		// AppArmor, with no profile loaded, is the first module on both
		// images, the paper's measurement baseline (DESIGN §1).
		if mods := m.K.LSM.Modules(); len(mods) == 0 || mods[0] != m.AppArmor {
			t.Fatal("AppArmor is not the first registered LSM module")
		}
		if m.K.Mode != kernel.ModeProtego {
			return
		}
		// Boot syncs every policy file once.
		for _, target := range []string{"mounts", "delegation", "bind", "ppp", "accounts-fragments"} {
			if n := m.Monitor.SyncCount(target); n != 1 {
				t.Errorf("boot SyncCount(%q) = %d, want 1", target, n)
			}
		}
	})
}

func TestSetuidBitCount(t *testing.T) {
	// Protego's headline claim: the setuid bit is eliminated from every
	// studied binary.
	m, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	for bin := range setuidBinaries {
		ino, err := m.K.FS.Lookup(vfs.RootCred, bin)
		if err != nil {
			t.Fatalf("%s: %v", bin, err)
		}
		if ino.Mode.IsSetuid() {
			t.Errorf("%s still setuid on Protego", bin)
		}
	}
}

// --- Mount (§4.2, Figure 1) ---

func TestUserMountWhitelisted(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, out, errOut, err := m.Run(alice, []string{userspace.BinMount, "/dev/cdrom", "/cdrom"}, nil)
		if code != 0 {
			t.Fatalf("mount failed: code=%d out=%q err=%q execErr=%v", code, out, errOut, err)
		}
		mnt := m.K.FS.MountAt("/cdrom")
		if mnt == nil || mnt.Device != "/dev/cdrom" {
			t.Fatalf("mount table: %+v", mnt)
		}
		if m.K.Mode == kernel.ModeProtego && mnt.MountedBy != UIDAlice {
			t.Fatalf("mounted by %d, want alice", mnt.MountedBy)
		}
	})
}

func TestUserMountNonWhitelistedDenied(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, _, errOut, _ := m.Run(alice, []string{userspace.BinMount, "/dev/sdc1", "/mnt/backup"}, nil)
		if code == 0 {
			t.Fatalf("non-whitelisted mount succeeded: %q", errOut)
		}
		if m.K.FS.MountAt("/mnt/backup") != nil {
			t.Fatal("mount appeared despite denial")
		}
	})
}

func TestUserMountBadOptionsDenied(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		// "suid" is not within the safe/whitelisted option set.
		code, _, _, _ := m.Run(alice, []string{userspace.BinMount, "-o", "suid", "/dev/cdrom", "/cdrom"}, nil)
		if code == 0 {
			t.Fatal("mount with unsafe option succeeded")
		}
	})
}

func TestRootMountAnything(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		root := session(t, m, "root")
		code, _, errOut, _ := m.Run(root, []string{userspace.BinMount, "/dev/sdc1", "/mnt/backup"}, nil)
		if code != 0 {
			t.Fatalf("root mount failed: %s", errOut)
		}
	})
}

func TestUmountPolicy(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		bob := session(t, m, "bob")
		// cdrom has "user": only the mounter may unmount.
		if code, _, e, _ := m.Run(alice, []string{userspace.BinMount, "/dev/cdrom", "/cdrom"}, nil); code != 0 {
			t.Fatalf("mount cdrom: %s", e)
		}
		if code, _, _, _ := m.Run(bob, []string{userspace.BinUmount, "/cdrom"}, nil); code == 0 {
			t.Fatal("bob unmounted alice's user mount")
		}
		if code, _, e, _ := m.Run(alice, []string{userspace.BinUmount, "/cdrom"}, nil); code != 0 {
			t.Fatalf("alice umount own: %s", e)
		}
		// usb has "users": anyone may unmount.
		if code, _, e, _ := m.Run(alice, []string{userspace.BinMount, "/dev/sdb1", "/media/usb"}, nil); code != 0 {
			t.Fatalf("mount usb: %s", e)
		}
		if code, _, e, _ := m.Run(bob, []string{userspace.BinUmount, "/media/usb"}, nil); code != 0 {
			t.Fatalf("bob umount users-mount: %s", e)
		}
	})
}

// --- Raw sockets (§4.1.1) ---

func TestPing(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, out, errOut, _ := m.Run(alice, []string{userspace.BinPing, "-c", "2", "10.0.0.2"}, nil)
		if code != 0 {
			t.Fatalf("ping failed: %q %q", out, errOut)
		}
		if !strings.Contains(out, "2 packets transmitted, 2 received") {
			t.Fatalf("ping output: %q", out)
		}
	})
}

func TestTracerouteAndMtrAndArping(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		for _, argv := range [][]string{
			{userspace.BinTraceroute, "10.0.0.2"},
			{userspace.BinMtr, "10.0.0.2"},
			{userspace.BinArping, "10.0.0.2"},
		} {
			code, out, errOut, _ := m.Run(alice, argv, nil)
			if code != 0 {
				t.Fatalf("%s failed: %q %q", argv[0], out, errOut)
			}
		}
	})
}

func TestRawSocketDirectProtego(t *testing.T) {
	// On Protego any user may open a raw socket directly — no trusted
	// binary required ("any unprivileged user [may] create her own
	// enhanced ping utility").
	m, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	alice := session(t, m, "alice")
	sock, err := m.K.Socket(alice, 2, 3, 1) // AF_INET, SOCK_RAW, ICMP
	if err != nil {
		t.Fatalf("raw socket: %v", err)
	}
	if !sock.UnprivRaw {
		t.Fatal("socket not tagged unprivileged-raw")
	}
}

func TestRawSocketDeniedOnLinux(t *testing.T) {
	m, err := Build(Options{Mode: kernel.ModeLinux})
	if err != nil {
		t.Fatal(err)
	}
	alice := session(t, m, "alice")
	if _, err := m.K.Socket(alice, 2, 3, 1); err != errno.EPERM {
		t.Fatalf("raw socket on baseline: got %v want EPERM", err)
	}
}

// --- Delegation (§4.3) ---

func TestSudoToRootWithPassword(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, out, errOut, _ := m.Run(alice, []string{userspace.BinSudo, "/usr/bin/id"}, AnswerWith(AlicePassword))
		if code != 0 {
			t.Fatalf("sudo id failed: %q %q", out, errOut)
		}
		if !strings.Contains(out, "uid=0 euid=0") {
			t.Fatalf("sudo id output: %q", out)
		}
	})
}

func TestSudoWrongPasswordDenied(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, out, _, _ := m.Run(alice, []string{userspace.BinSudo, "/usr/bin/id"}, AnswerWith("wrong"))
		if code == 0 {
			t.Fatalf("sudo with wrong password succeeded: %q", out)
		}
	})
}

func TestSudoNoPasswdRestrictedCommand(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		charlie := session(t, m, "charlie")
		// %wheel may run /bin/ls as root without a password...
		code, _, errOut, _ := m.Run(charlie, []string{userspace.BinSudo, "/bin/ls", "/root"}, nil)
		if code != 0 {
			t.Fatalf("charlie sudo ls: %s", errOut)
		}
		// ...but nothing else: the exec-time validation fails (EPERM at
		// exec, the paper's deliberate error-behaviour change).
		code, out, _, _ := m.Run(charlie, []string{userspace.BinSudo, "/usr/bin/id"}, nil)
		if code == 0 {
			t.Fatalf("charlie sudo id should fail: %q", out)
		}
	})
}

func TestSudoUnauthorizedUserDenied(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		bob := session(t, m, "bob")
		code, out, _, _ := m.Run(bob, []string{userspace.BinSudo, "/usr/bin/id"}, AnswerWith(BobPassword))
		if code == 0 {
			t.Fatalf("bob sudo id should fail: %q", out)
		}
	})
}

func TestSudoLateralDelegation(t *testing.T) {
	// The paper's motivating example: Alice allows Bob to run lpr with
	// her credentials (via /etc/sudoers.d/printing) — a lateral move
	// that never touches root on Protego.
	bothModes(t, func(t *testing.T, m *Machine) {
		bob := session(t, m, "bob")
		if err := m.K.WriteFile(bob, "/tmp/doc.txt", []byte("print me")); err != nil {
			t.Fatalf("write doc: %v", err)
		}
		code, _, errOut, _ := m.Run(bob,
			[]string{userspace.BinSudo, "-u", "alice", userspace.BinLpr, "/tmp/doc.txt"},
			AnswerWith(BobPassword))
		if code != 0 {
			t.Fatalf("bob lpr as alice: %s", errOut)
		}
		queue, err := m.K.FS.ReadFile(vfs.RootCred, "/var/spool/lpd/queue")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(queue), "uid=1000") {
			t.Fatalf("job not queued as alice: %q", queue)
		}
	})
}

func TestSuWithTargetPassword(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		charlie := session(t, m, "charlie")
		code, out, errOut, _ := m.Run(charlie,
			[]string{userspace.BinSu, "root", "-c", "/usr/bin/id"}, AnswerWith(RootPassword))
		if code != 0 {
			t.Fatalf("su failed: %q %q", out, errOut)
		}
		if !strings.Contains(out, "uid=0") {
			t.Fatalf("su id output: %q", out)
		}
	})
}

func TestSuWrongPasswordDenied(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		bob := session(t, m, "bob")
		code, out, _, _ := m.Run(bob, []string{userspace.BinSu, "root", "-c", "/usr/bin/id"}, AnswerWith("nope"))
		if code == 0 {
			t.Fatalf("su with wrong password succeeded: %q", out)
		}
		if strings.Contains(out, "uid=0") {
			t.Fatalf("gained root: %q", out)
		}
	})
}

func TestSuLateralMove(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		bob := session(t, m, "bob")
		code, out, _, _ := m.Run(bob, []string{userspace.BinSu, "alice", "-c", "/usr/bin/id"}, AnswerWith(AlicePassword))
		if code != 0 {
			t.Fatalf("su alice failed: %q", out)
		}
		if !strings.Contains(out, "uid=1000 euid=1000") {
			t.Fatalf("su alice id: %q", out)
		}
	})
}

func TestSudoedit(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/secret.conf", []byte("root-only-data"), 0o600, 0, 0); err != nil {
			t.Fatal(err)
		}
		bob := session(t, m, "bob")
		code, out, errOut, _ := m.Run(bob, []string{userspace.BinSudoedit, "/etc/secret.conf"}, AnswerWith(BobPassword))
		if code != 0 {
			t.Fatalf("sudoedit: %q %q", out, errOut)
		}
		if !strings.Contains(out, "root-only-data") {
			t.Fatalf("sudoedit output: %q", out)
		}
		// charlie has no sudoedit rule.
		charlie := session(t, m, "charlie")
		code, out, _, _ = m.Run(charlie, []string{userspace.BinSudoedit, "/etc/secret.conf"}, AnswerWith(CharliePassword))
		if code == 0 && strings.Contains(out, "root-only-data") {
			t.Fatal("charlie read root file via sudoedit")
		}
	})
}

func TestNewgrpPasswordProtectedGroup(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		charlie := session(t, m, "charlie")
		code, out, errOut, _ := m.Run(charlie, []string{userspace.BinNewgrp, "ops"}, AnswerWith(OpsGroupPassword))
		if code != 0 {
			t.Fatalf("newgrp: %q %q", out, errOut)
		}
		if !strings.Contains(out, "gid=20") {
			t.Fatalf("newgrp gid: %q", out)
		}
		// Wrong password.
		code, _, _, _ = m.Run(charlie, []string{userspace.BinNewgrp, "ops"}, AnswerWith("bad"))
		if code == 0 {
			t.Fatal("newgrp with wrong group password succeeded")
		}
	})
}

func TestNewgrpMemberNoPassword(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		// alice is an ops member: no password needed.
		code, out, errOut, _ := m.Run(alice, []string{userspace.BinNewgrp, "ops"}, nil)
		if code != 0 {
			t.Fatalf("member newgrp: %q %q", out, errOut)
		}
	})
}

// --- Credential databases (§4.4) ---

func TestChshOwnShell(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, _, errOut, _ := m.Run(alice, []string{userspace.BinChsh, "-s", "/bin/zsh"}, AnswerWith(AlicePassword))
		if code != 0 {
			t.Fatalf("chsh: %s", errOut)
		}
		if m.K.Mode == kernel.ModeProtego {
			// The fragment is updated; the monitoring daemon would
			// regenerate the legacy file (tested in monitord).
			if err := m.Monitor.SyncAccountsFromFragments(); err != nil {
				t.Fatal(err)
			}
		}
		u, err := m.DB.LookupUser("alice")
		if err != nil {
			t.Fatal(err)
		}
		if u.Shell != "/bin/zsh" {
			t.Fatalf("shell = %q", u.Shell)
		}
	})
}

func TestChshInvalidShellRejected(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, _, _, _ := m.Run(alice, []string{userspace.BinChsh, "-s", "/tmp/evil"}, AnswerWith(AlicePassword))
		if code == 0 {
			t.Fatal("chsh accepted unlisted shell")
		}
	})
}

func TestChfnOwnGecos(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		bob := session(t, m, "bob")
		code, _, errOut, _ := m.Run(bob, []string{userspace.BinChfn, "-f", "Robert"}, AnswerWith(BobPassword))
		if code != 0 {
			t.Fatalf("chfn: %s", errOut)
		}
		if m.K.Mode == kernel.ModeProtego {
			if err := m.Monitor.SyncAccountsFromFragments(); err != nil {
				t.Fatal(err)
			}
		}
		u, _ := m.DB.LookupUser("bob")
		if u.Gecos != "Robert" {
			t.Fatalf("gecos = %q", u.Gecos)
		}
	})
}

func TestPasswdChangeAndLogin(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		answers := map[string]string{"new": "newalicepw"}
		asker := func(prompt string) string {
			if strings.Contains(prompt, "New password") {
				return answers["new"]
			}
			return AlicePassword // current password / reauthentication
		}
		code, out, errOut, _ := m.Run(alice, []string{userspace.BinPasswd}, asker)
		if code != 0 {
			t.Fatalf("passwd: %q %q", out, errOut)
		}
		if m.K.Mode == kernel.ModeProtego {
			if err := m.Monitor.SyncAccountsFromFragments(); err != nil {
				t.Fatal(err)
			}
		}
		// The new password now works at login; the old one does not.
		root := session(t, m, "root")
		code, out, _, _ = m.Run(root, []string{userspace.BinLogin, "alice"}, AnswerWith("newalicepw"))
		if code != 0 || !strings.Contains(out, "Welcome, alice") {
			t.Fatalf("login with new password: code=%d out=%q", code, out)
		}
		code, _, _, _ = m.Run(root, []string{userspace.BinLogin, "alice"}, AnswerWith(AlicePassword))
		if code == 0 {
			t.Fatal("login with old password succeeded")
		}
	})
}

func TestPasswdWrongCurrentDenied(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, _, _, _ := m.Run(alice, []string{userspace.BinPasswd}, AnswerWith("wrongpw"))
		if code == 0 {
			t.Fatal("passwd with wrong current password succeeded")
		}
	})
}

func TestPasswdCannotChangeOthers(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		bob := session(t, m, "bob")
		code, _, _, _ := m.Run(bob, []string{userspace.BinPasswd, "alice"}, AnswerWith(BobPassword))
		if code == 0 {
			t.Fatal("bob changed alice's password")
		}
	})
}

func TestProtegoFragmentIsolation(t *testing.T) {
	// On Protego, bob cannot even read alice's credential fragments —
	// DAC at the policy's granularity.
	m, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	bob := session(t, m, "bob")
	if _, err := m.K.ReadFile(bob, "/etc/passwds/alice"); err == nil {
		t.Fatal("bob read alice's passwd fragment")
	}
	if _, err := m.K.ReadFile(bob, "/etc/shadows/alice"); err == nil {
		t.Fatal("bob read alice's shadow fragment")
	}
	if err := m.K.WriteFile(bob, "/etc/passwds/alice", []byte("alice:x:1000:100:评:/:/bin/sh\n")); err == nil {
		t.Fatal("bob wrote alice's passwd fragment")
	}
	// And nobody unprivileged can mint a new account.
	if err := m.K.WriteFile(bob, "/etc/passwds/eve", []byte("eve:x:0:0::/:/bin/sh\n")); err == nil {
		t.Fatal("bob created a new account fragment")
	}
}

func TestGpasswd(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice") // ops member
		code, _, errOut, _ := m.Run(alice, []string{userspace.BinGpasswd, "ops"}, AnswerWith("newopspw"))
		if code != 0 {
			t.Fatalf("gpasswd: %s", errOut)
		}
		if m.K.Mode == kernel.ModeProtego {
			if err := m.Monitor.SyncAccountsFromFragments(); err != nil {
				t.Fatal(err)
			}
			// Non-members cannot touch the fragment.
			bob := session(t, m, "bob")
			code, _, _, _ := m.Run(bob, []string{userspace.BinGpasswd, "ops"}, AnswerWith("evilpw"))
			if code == 0 {
				t.Fatal("non-member changed group password")
			}
		}
	})
}

// --- Privileged ports (§4.1.3) ---

func TestEximBindsAllocatedPort(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		server := session(t, m, "Debian-exim")
		done := make(chan int, 1)
		go func() {
			code, _, _, _ := m.Run(server, []string{userspace.BinExim, "serve", "1"}, nil)
			done <- code
		}()
		client := session(t, m, "alice")
		var code int
		var errOut string
		for try := 0; try < 100; try++ {
			code, _, errOut, _ = m.Run(client, []string{userspace.BinExim, "send", "alice", "hello-world"}, nil)
			if code == 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if code != 0 {
			t.Fatalf("exim send: %s", errOut)
		}
		if serverCode := <-done; serverCode != 0 {
			t.Fatalf("exim serve exited %d", serverCode)
		}
		mail, err := m.K.FS.ReadFile(vfs.RootCred, "/var/mail/alice")
		if err != nil || !strings.Contains(string(mail), "hello-world") {
			t.Fatalf("mail not delivered: %q %v", mail, err)
		}
	})
}

func TestBindAllocationExclusive(t *testing.T) {
	// On Protego, even a wrong (binary, uid) instance may not take an
	// allocated port — the object-based policy of §4.1.3.
	m, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	alice := session(t, m, "alice")
	// alice runs httpd, but port 80 is allocated to (httpd, www-data).
	code, _, errOut, _ := m.Run(alice, []string{userspace.BinHttpd, "serve", "0"}, nil)
	if code == 0 {
		t.Fatalf("alice bound port 80: %s", errOut)
	}
	// www-data succeeds.
	www := session(t, m, "www-data")
	code, _, errOut, _ = m.Run(www, []string{userspace.BinHttpd, "serve", "0"}, nil)
	if code != 0 {
		t.Fatalf("www-data httpd: %s", errOut)
	}
}

// --- PPP (§4.1.2) ---

func TestPppdSafeSession(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, out, errOut, _ := m.Run(alice, []string{
			userspace.BinPppd, "ppp0", "--param=bsdcomp=15", "--route=192.168.99.0/24",
		}, nil)
		if code != 0 {
			t.Fatalf("pppd: %q %q", out, errOut)
		}
		// The route landed.
		found := false
		for _, r := range m.K.Net.Routes() {
			if r.PrefixLen == 24 && r.Iface == "ppp0" {
				found = true
			}
		}
		if !found {
			t.Fatalf("route missing: %v", m.K.Net.Routes())
		}
	})
}

func TestPppdConflictingRouteDenied(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		// 10.0.0.0/24 overlaps the eth0 route.
		code, _, _, _ := m.Run(alice, []string{userspace.BinPppd, "ppp0", "--route=10.0.0.0/24"}, nil)
		if code == 0 {
			t.Fatal("conflicting route accepted")
		}
	})
}

func TestPppdUnsafeParamDenied(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, _, _, _ := m.Run(alice, []string{userspace.BinPppd, "ppp0", "--param=defaultroute=1"}, nil)
		if code == 0 {
			t.Fatal("unsafe ppp parameter accepted")
		}
	})
}

func TestPppdModemInUseDenied(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		bob := session(t, m, "bob")
		if code, _, e, _ := m.Run(alice, []string{userspace.BinPppd, "ppp0"}, nil); code != 0 {
			t.Fatalf("alice pppd: %s", e)
		}
		if code, _, _, _ := m.Run(bob, []string{userspace.BinPppd, "ppp0"}, nil); code == 0 {
			t.Fatal("bob reconfigured alice's modem")
		}
	})
}

// --- Interface redesigns (§4, §4.5) ---

func TestDmcryptGetDevice(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, out, errOut, _ := m.Run(alice, []string{userspace.BinDmcrypt, "/dev/dm-0"}, nil)
		if code != 0 {
			t.Fatalf("dmcrypt-get-device: %q %q", out, errOut)
		}
		if !strings.Contains(out, "/dev/sda2") {
			t.Fatalf("output: %q", out)
		}
		// The key must never appear in output.
		if strings.Contains(out, "deadbeef") {
			t.Fatalf("key leaked: %q", out)
		}
	})
}

func TestDmcryptIoctlStillPrivilegedOnProtego(t *testing.T) {
	m, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	alice := session(t, m, "alice")
	var info userspace.DMInfo
	if err := m.K.Ioctl(alice, "/dev/dm-0", kernel.DMGETINFO, &info); err == nil {
		t.Fatal("unprivileged DMGETINFO succeeded — key disclosure")
	}
}

func TestSSHKeysign(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, out, errOut, _ := m.Run(alice, []string{userspace.BinSSHKeysign, "data-to-sign"}, nil)
		if code != 0 {
			t.Fatalf("ssh-keysign: %q %q", out, errOut)
		}
		if !strings.HasPrefix(out, "SIG:") {
			t.Fatalf("signature: %q", out)
		}
	})
}

func TestHostKeyUnreadableByOtherBinaries(t *testing.T) {
	m, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	alice := session(t, m, "alice")
	// Direct read (binary "/sbin/init" context) is refused.
	if _, err := m.K.ReadFile(alice, userspace.HostKeyPath); err == nil {
		t.Fatal("host key readable outside ssh-keysign")
	}
}

func TestXserver(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, out, errOut, _ := m.Run(alice, []string{userspace.BinXserver}, nil)
		if code != 0 {
			t.Fatalf("X: %q %q", out, errOut)
		}
	})
}

// --- iptables extension ---

func TestIptablesRootOnly(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		// Unprivileged iptables listing is denied (the binary is not
		// setuid in either mode).
		code, _, _, _ := m.Run(alice, []string{userspace.BinIptables, "-S"}, nil)
		if code == 0 {
			t.Fatal("alice ran iptables")
		}
		root := session(t, m, "root")
		code, out, _, _ := m.Run(root, []string{userspace.BinIptables, "-S"}, nil)
		if code != 0 {
			t.Fatal("root iptables failed")
		}
		if m.K.Mode == kernel.ModeProtego && !strings.Contains(out, "unprivraw") {
			t.Fatalf("protego rules not listed: %q", out)
		}
	})
}

// --- Namespaces (§4.6, §6) ---

func TestChromiumSandbox(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		alice := session(t, m, "alice")
		code, out, errOut, _ := m.Run(alice, []string{userspace.BinChromiumSandbox}, nil)
		if code != 0 {
			t.Fatalf("sandbox: %q %q", out, errOut)
		}
		if !strings.Contains(out, "fake network up") || !strings.Contains(out, "isolation holds") {
			t.Fatalf("sandbox output: %q", out)
		}
	})
}

func TestSandboxSetuidBitOnlyOnBaseline(t *testing.T) {
	// §4.6: namespaces were the one interface where the policy was not
	// yet understood — the sandbox helper keeps its setuid bit on the
	// paper's Linux 3.6.0 baseline but needs none on Protego.
	linux, err := Build(Options{Mode: kernel.ModeLinux})
	if err != nil {
		t.Fatal(err)
	}
	ino, _ := linux.K.FS.Lookup(vfs.RootCred, userspace.BinChromiumSandbox)
	if !ino.Mode.IsSetuid() {
		t.Fatal("baseline sandbox helper not setuid")
	}
	protego, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	ino, _ = protego.K.FS.Lookup(vfs.RootCred, userspace.BinChromiumSandbox)
	if ino.Mode.IsSetuid() {
		t.Fatal("protego sandbox helper still setuid")
	}
	if !protego.K.UnprivNamespaces() {
		t.Fatal("protego kernel should allow unprivileged namespaces")
	}
}
