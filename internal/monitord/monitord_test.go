package monitord_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"protego/internal/accountdb"
	"protego/internal/core"
	"protego/internal/errno"
	"protego/internal/faultinject"
	"protego/internal/kernel"
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

// userBackupFstab is the image's fstab with its root-only /mnt/backup row
// made user-mountable: a row appended for the pair would not count, since
// the first row of a (device, point) pair decides for it.
func userBackupFstab(t *testing.T, m *world.Machine) []byte {
	t.Helper()
	fstab, err := m.K.FS.ReadFile(vfs.RootCred, "/etc/fstab")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(fstab), "\n") {
		if !strings.HasPrefix(line, "/dev/sdc1 ") {
			b.WriteString(line)
		}
	}
	b.WriteString("/dev/sdc1 /mnt/backup ext4 rw,user 0 0\n")
	return []byte(b.String())
}

func TestSyncAllAtBoot(t *testing.T) {
	m := protegoMachine(t) // Build runs SyncAll
	if got := len(m.Protego.MountRules()); got != 2 {
		t.Fatalf("mount rules = %d (cdrom + usb expected)", got)
	}
	if m.Protego.Sudoers() == nil {
		t.Fatal("delegation not synced")
	}
	if len(m.Protego.BindAllocations()) != 2 {
		t.Fatalf("bind allocations: %v", m.Protego.BindAllocations())
	}
	// Boot fragmentation happened.
	if !m.K.FS.Exists(vfs.RootCred, accountdb.PasswdsDir+"/alice") {
		t.Fatal("accounts not fragmented at boot")
	}
}

func TestSyncMountsReflectsFstabEdits(t *testing.T) {
	m := protegoMachine(t)
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/fstab", userBackupFstab(t, m), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Monitor.SyncMounts(); err != nil {
		t.Fatal(err)
	}
	rules := m.Protego.MountRules()
	if len(rules) != 3 {
		t.Fatalf("rules = %d", len(rules))
	}
	// And removing all user entries empties the whitelist.
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/fstab", []byte("/dev/sda1 / ext4 defaults 0 1\n"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Monitor.SyncMounts(); err != nil {
		t.Fatal(err)
	}
	if len(m.Protego.MountRules()) != 0 {
		t.Fatal("whitelist not cleared")
	}
}

func TestSyncMountsRejectsMalformedFstab(t *testing.T) {
	m := protegoMachine(t)
	before := m.Protego.MountRules()
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/fstab", []byte("broken line\n"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Monitor.SyncMounts(); err == nil {
		t.Fatal("malformed fstab accepted")
	}
	// Old policy stays in force.
	if len(m.Protego.MountRules()) != len(before) {
		t.Fatal("policy clobbered by failed sync")
	}
}

func TestSyncDelegationIncludesSudoersD(t *testing.T) {
	m := protegoMachine(t)
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/sudoers.d/extra",
		[]byte("charlie ALL = (bob) NOPASSWD: /usr/bin/id\n"), 0o440, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Monitor.SyncDelegation(); err != nil {
		t.Fatal(err)
	}
	s := m.Protego.Sudoers()
	if !s.LookupTransition("charlie", nil, "bob") {
		t.Fatal("sudoers.d fragment not merged")
	}
}

func TestSyncBindResolvesUsers(t *testing.T) {
	m := protegoMachine(t)
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/bind",
		[]byte("587 tcp /usr/sbin/exim4 Debian-exim\n"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Monitor.SyncBind(); err != nil {
		t.Fatal(err)
	}
	allocs := m.Protego.BindAllocations()
	if len(allocs) != 1 || !strings.Contains(allocs[0], "587 tcp /usr/sbin/exim4 Debian-exim") {
		t.Fatalf("allocations: %v", allocs)
	}
	// Unknown users abort the sync.
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/bind",
		[]byte("25 tcp /usr/sbin/exim4 ghost\n"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Monitor.SyncBind(); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestAccountRoundTrip(t *testing.T) {
	m := protegoMachine(t)
	// A user edits her fragment (what chsh does)...
	frag := accountdb.PasswdsDir + "/bob"
	if err := m.K.FS.WriteFile(vfs.RootCred, frag,
		[]byte("bob:x:1001:100:Bobby:/home/bob:/bin/zsh\n"), 0o600, 1001, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.Monitor.SyncAccountsFromFragments(); err != nil {
		t.Fatal(err)
	}
	u, err := m.DB.LookupUser("bob")
	if err != nil || u.Shell != "/bin/zsh" || u.Gecos != "Bobby" {
		t.Fatalf("legacy not updated: %+v %v", u, err)
	}
	// ...and the admin edits the legacy file (what vipw does).
	data, _ := m.K.FS.ReadFile(vfs.RootCred, accountdb.PasswdFile)
	edited := strings.Replace(string(data), "/bin/zsh", "/bin/bash", 1)
	if err := m.K.FS.WriteFile(vfs.RootCred, accountdb.PasswdFile, []byte(edited), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Monitor.SyncAccountsToFragments(); err != nil {
		t.Fatal(err)
	}
	fragData, _ := m.K.FS.ReadFile(vfs.RootCred, frag)
	if !strings.Contains(string(fragData), "/bin/bash") {
		t.Fatalf("fragment not updated: %q", fragData)
	}
}

// TestWatcherLoopEndToEnd: however root rewrites /etc/fstab — the
// trusted file call, the WriteFile syscall, or an O_TRUNC open and a
// write(2) — the daemon's watch sees it, syncs the whitelist, and alice
// can mount the newly user-mountable entry.
func TestWatcherLoopEndToEnd(t *testing.T) {
	for _, c := range []struct {
		name    string
		rewrite func(m *world.Machine, fstab []byte) error
	}{
		{"vfs.FS.WriteFile", func(m *world.Machine, fstab []byte) error {
			return m.K.FS.WriteFile(vfs.RootCred, "/etc/fstab", fstab, 0o644, 0, 0)
		}},
		{"Kernel.WriteFile", func(m *world.Machine, fstab []byte) error {
			root, err := m.Session("root")
			if err != nil {
				return err
			}
			return m.K.WriteFile(root, "/etc/fstab", fstab)
		}},
		{"open O_TRUNC+write", func(m *world.Machine, fstab []byte) error {
			root, err := m.Session("root")
			if err != nil {
				return err
			}
			fd, err := m.K.Open(root, "/etc/fstab", kernel.O_WRONLY|kernel.O_TRUNC)
			if err != nil {
				return err
			}
			defer m.K.CloseFD(root, fd)
			_, err = m.K.Write(root, fd, fstab)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := protegoMachine(t)
			stop := make(chan struct{})
			m.Monitor.Start(stop)
			defer close(stop)

			if err := c.rewrite(m, userBackupFstab(t, m)); err != nil {
				t.Fatal(err)
			}
			// The truncation and the write are two events; wait for the
			// sync that installs the new row.
			deadline := time.Now().Add(2 * time.Second)
			for m.Protego.MountRow("/dev/sdc1", "/mnt/backup") == nil {
				if time.Now().After(deadline) {
					t.Fatal("watcher never synced")
				}
				time.Sleep(time.Millisecond)
			}
			// The policy change is live: alice can mount the new entry.
			alice, err := m.Session("alice")
			if err != nil {
				t.Fatal(err)
			}
			code, _, errOut, _ := m.Run(alice, []string{userspace.BinMount, "/dev/sdc1", "/mnt/backup"}, nil)
			if code != 0 {
				t.Fatalf("mount after live sync: %s", errOut)
			}
		})
	}
}

func TestWatcherAccountConvergence(t *testing.T) {
	// A fragment edit triggers legacy regeneration, which must converge
	// (no event ping-pong).
	m := protegoMachine(t)
	stop := make(chan struct{})
	m.Monitor.Start(stop)
	defer close(stop)
	baseline := m.Monitor.SyncCount("accounts-legacy")
	frag := accountdb.PasswdsDir + "/bob"
	if err := m.K.FS.WriteFile(vfs.RootCred, frag,
		[]byte("bob:x:1001:100:B:/home/bob:/bin/zsh\n"), 0o600, 1001, 100); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.Monitor.SyncCount("accounts-legacy") <= baseline {
		if time.Now().After(deadline) {
			t.Fatal("account sync never ran")
		}
		time.Sleep(time.Millisecond)
	}
	// Allow any follow-on events to settle, then verify quiescence.
	time.Sleep(50 * time.Millisecond)
	countLegacy := m.Monitor.SyncCount("accounts-legacy")
	countFrag := m.Monitor.SyncCount("accounts-fragments")
	time.Sleep(100 * time.Millisecond)
	if m.Monitor.SyncCount("accounts-legacy") != countLegacy ||
		m.Monitor.SyncCount("accounts-fragments") != countFrag {
		t.Fatal("account sync did not converge (ping-pong)")
	}
}

// A torn fstab read must fail the reload and keep the previous mount
// whitelist intact — never an empty or partial one. Once the fault
// clears, a reload applies the new rules.
func TestTornFstabReloadKeepsLastGoodWhitelist(t *testing.T) {
	m := protegoMachine(t)
	before := m.Protego.MountRules()
	if len(before) == 0 {
		t.Fatal("boot sync left an empty whitelist")
	}
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/fstab", userBackupFstab(t, m), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}

	in := faultinject.New(faultinject.Plan{Seed: 7, Rules: []faultinject.Rule{
		{Site: faultinject.SiteMonFstab, Action: faultinject.ActTorn},
	}})
	m.SetFaultInjector(in)
	if err := m.Monitor.SyncMounts(); err == nil {
		t.Fatal("reload of a torn fstab should fail")
	}
	if in.Injections() == 0 {
		t.Fatal("torn fault never fired")
	}
	after := m.Protego.MountRules()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("whitelist changed under torn reload:\n before: %v\n after:  %v", before, after)
	}

	// Fault cleared: the retried reload picks up the new entry.
	in.SetEnabled(false)
	if err := m.Monitor.SyncMounts(); err != nil {
		t.Fatalf("reload after fault cleared: %v", err)
	}
	if got := len(m.Protego.MountRules()); got != len(before)+1 {
		t.Fatalf("rules after recovery = %d, want %d", got, len(before)+1)
	}
}

// An fstab text that parses only in part must not be applied: the write
// fails with EINVAL and the whitelist is untouched (the swap-on-success
// guarantee behind every monitord reload path).
func TestProcMountsWriteIsAtomic(t *testing.T) {
	m := protegoMachine(t)
	before := m.Protego.MountRules()
	ino, err := m.K.FS.Lookup(vfs.RootCred, core.ProcMounts)
	if err != nil {
		t.Fatal(err)
	}
	batch := "/dev/x /media/x vfat rw,user 0 0\nbroken-rule\n"
	_, write := m.K.FS.ProcHandlers(ino)
	err = write(vfs.RootCred, []byte(batch))
	if err == nil {
		t.Fatal("malformed batch accepted")
	}
	if !errno.Is(err, errno.EINVAL) {
		t.Fatalf("err = %v, want EINVAL", err)
	}
	if !reflect.DeepEqual(before, m.Protego.MountRules()) {
		t.Fatalf("whitelist mutated by failed batch (cleared or partial): %v", m.Protego.MountRules())
	}
}
