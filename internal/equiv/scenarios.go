package equiv

import (
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// Scenarios is the per-utility functional test corpus (§5.3). Scenario
// names describe the behaviour exercised; every scenario runs on both
// systems and must agree on exit status, stdout, and effects.
var Scenarios = map[string][]Scenario{
	"mount": {
		{Name: "list mount table", User: "alice", Argv: []string{userspace.BinMount}},
		{Name: "user mounts whitelisted cdrom", User: "alice",
			Argv:   []string{userspace.BinMount, "/dev/cdrom", "/cdrom"},
			Effect: mountTableEffect},
		{Name: "user mount by device only", User: "alice",
			Argv:   []string{userspace.BinMount, "/dev/cdrom"},
			Effect: mountTableEffect},
		{Name: "user mount with explicit safe options", User: "alice",
			Argv:   []string{userspace.BinMount, "-o", "ro,nosuid", "/dev/cdrom", "/cdrom"},
			Effect: mountTableEffect},
		{Name: "user mount non-whitelisted denied", User: "alice",
			Argv:   []string{userspace.BinMount, "/dev/sdc1", "/mnt/backup"},
			Effect: mountTableEffect},
		{Name: "user mount unsafe option denied", User: "alice",
			Argv:   []string{userspace.BinMount, "-o", "suid", "/dev/cdrom", "/cdrom"},
			Effect: mountTableEffect},
		{Name: "unknown device error", User: "alice",
			Argv: []string{userspace.BinMount, "/dev/floppy"}},
		{Name: "root mounts non-whitelisted", User: "root",
			Argv:   []string{userspace.BinMount, "/dev/sdc1", "/mnt/backup"},
			Effect: mountTableEffect},
		{Name: "usage error on bad flag", User: "alice",
			Argv: []string{userspace.BinMount, "-t"}},
	},
	"umount": {
		{Name: "umount not mounted", User: "alice",
			Argv: []string{userspace.BinUmount, "/cdrom"}},
		{Name: "owner unmounts user mount", User: "alice",
			Setup:  mountAs("alice", "/dev/cdrom", "/cdrom"),
			Argv:   []string{userspace.BinUmount, "/cdrom"},
			Effect: mountTableEffect},
		{Name: "other user cannot unmount user mount", User: "bob",
			Setup:  mountAs("alice", "/dev/cdrom", "/cdrom"),
			Argv:   []string{userspace.BinUmount, "/cdrom"},
			Effect: mountTableEffect},
		{Name: "any user unmounts users mount", User: "bob",
			Setup:  mountAs("alice", "/dev/sdb1", "/media/usb"),
			Argv:   []string{userspace.BinUmount, "/media/usb"},
			Effect: mountTableEffect},
		{Name: "usage error", User: "alice", Argv: []string{userspace.BinUmount}},
	},
	"ping": {
		{Name: "ping localhost once", User: "alice",
			Argv: []string{userspace.BinPing, "-c", "1", "127.0.0.1"}},
		{Name: "ping host thrice", User: "alice",
			Argv: []string{userspace.BinPing, "-c", "3", "10.0.0.2"}},
		{Name: "unknown host", User: "alice",
			Argv: []string{userspace.BinPing, "not-an-ip"}},
		{Name: "bad count", User: "alice",
			Argv: []string{userspace.BinPing, "-c", "zero", "10.0.0.2"}},
		{Name: "usage", User: "alice", Argv: []string{userspace.BinPing}},
		{Name: "root ping", User: "root",
			Argv: []string{userspace.BinPing, "-c", "1", "10.0.0.2"}},
	},
	"sudo": {
		{Name: "admin to root with password", User: "alice",
			Argv:    []string{userspace.BinSudo, "/usr/bin/id"},
			Answers: map[string]string{"": world.AlicePassword}},
		{Name: "wrong password denied", User: "alice",
			Argv:    []string{userspace.BinSudo, "/usr/bin/id"},
			Answers: map[string]string{"": "wrongpw"}},
		{Name: "nopasswd whitelisted command", User: "charlie",
			Argv: []string{userspace.BinSudo, "/bin/ls", "/tmp"}},
		{Name: "restricted command denied", User: "charlie",
			Argv: []string{userspace.BinSudo, "/usr/bin/id"}},
		{Name: "lateral delegation to alice", User: "bob",
			Setup:   writeFile("/tmp/doc.txt", "print me", 0o644),
			Argv:    []string{userspace.BinSudo, "-u", "alice", userspace.BinLpr, "/tmp/doc.txt"},
			Answers: map[string]string{"": world.BobPassword},
			Effect:  queueEffect},
		// A later sudoers.d row for the same (user, target) decides the
		// command it names: sudoers(5)'s last match, with no password.
		{Name: "later nopasswd row decides its command", User: "bob",
			Setup: addSudoersFragment("/etc/sudoers.d/zz", "bob ALL = (alice) NOPASSWD: /bin/ls\n"),
			Argv:  []string{userspace.BinSudo, "-u", "alice", userspace.BinLs, "/tmp"}},
		{Name: "usage", User: "alice", Argv: []string{userspace.BinSudo}},
	},
	"sudoedit": {
		{Name: "authorized delegated read", User: "bob",
			Setup:   writeFile("/etc/secret.conf", "root-only-data", 0o600),
			Argv:    []string{userspace.BinSudoedit, "/etc/secret.conf"},
			Answers: map[string]string{"": world.BobPassword}},
		{Name: "unauthorized user denied", User: "charlie",
			Setup:   writeFile("/etc/secret.conf", "root-only-data", 0o600),
			Argv:    []string{userspace.BinSudoedit, "/etc/secret.conf"},
			Answers: map[string]string{"": world.CharliePassword}},
		{Name: "usage", User: "bob", Argv: []string{userspace.BinSudoedit}},
	},
	"su": {
		{Name: "to root with target password", User: "charlie",
			Argv:    []string{userspace.BinSu, "root", "-c", "/usr/bin/id"},
			Answers: map[string]string{"": world.RootPassword}},
		{Name: "wrong password denied", User: "bob",
			Argv:    []string{userspace.BinSu, "root", "-c", "/usr/bin/id"},
			Answers: map[string]string{"": "nope"}},
		{Name: "lateral move with target password", User: "bob",
			Argv:    []string{userspace.BinSu, "alice", "-c", "/usr/bin/id"},
			Answers: map[string]string{"": world.AlicePassword}},
		// charlie has no sudoers rule to alice, so su's grant happens
		// at setuid time on the target's password.
		{Name: "lateral move without a delegation rule", User: "charlie",
			Argv:    []string{userspace.BinSu, "alice", "-c", "/usr/bin/id"},
			Answers: map[string]string{"": world.AlicePassword}},
		{Name: "unknown target user", User: "bob",
			Argv: []string{userspace.BinSu, "mallory"}},
	},
	"passwd": {
		{Name: "change own password", User: "alice",
			Argv: []string{userspace.BinPasswd},
			Answers: map[string]string{
				"New password": "freshpw1", "": world.AlicePassword,
			},
			Effect: loginWorks("alice", "freshpw1")},
		{Name: "wrong current password denied", User: "alice",
			Argv:    []string{userspace.BinPasswd},
			Answers: map[string]string{"New password": "freshpw1", "": "wrongpw"},
			Effect:  loginWorks("alice", world.AlicePassword)},
		{Name: "cannot change another user", User: "bob",
			Argv:    []string{userspace.BinPasswd, "alice"},
			Answers: map[string]string{"New password": "evilpw", "": world.BobPassword},
			Effect:  loginWorks("alice", world.AlicePassword)},
		{Name: "empty new password rejected", User: "alice",
			Argv:    []string{userspace.BinPasswd},
			Answers: map[string]string{"New password": "", "": world.AlicePassword}},
		{Name: "usage", User: "alice",
			Argv: []string{userspace.BinPasswd, "a", "b"}},
	},
	"chsh": {
		{Name: "change to listed shell", User: "alice",
			Argv:    []string{userspace.BinChsh, "-s", "/bin/zsh"},
			Answers: map[string]string{"": world.AlicePassword},
			Effect:  shellOf("alice")},
		{Name: "unlisted shell rejected", User: "alice",
			Argv:    []string{userspace.BinChsh, "-s", "/tmp/evil"},
			Answers: map[string]string{"": world.AlicePassword},
			Effect:  shellOf("alice")},
		{Name: "usage", User: "alice", Argv: []string{userspace.BinChsh}},
	},
	"chfn": {
		{Name: "change full name", User: "bob",
			Argv:    []string{userspace.BinChfn, "-f", "Robert Tables"},
			Answers: map[string]string{"": world.BobPassword},
			Effect:  shellOf("bob")},
		{Name: "colon rejected", User: "bob",
			Argv:    []string{userspace.BinChfn, "-f", "evil:entry"},
			Answers: map[string]string{"": world.BobPassword},
			Effect:  shellOf("bob")},
		{Name: "usage", User: "bob", Argv: []string{userspace.BinChfn}},
	},
	"gpasswd": {
		{Name: "member sets group password", User: "alice",
			Argv:    []string{userspace.BinGpasswd, "ops"},
			Answers: map[string]string{"": "newopspw"}},
		{Name: "nonexistent group", User: "alice",
			Argv:    []string{userspace.BinGpasswd, "nosuch"},
			Answers: map[string]string{"": "x"}},
		{Name: "empty password rejected", User: "alice",
			Argv:    []string{userspace.BinGpasswd, "ops"},
			Answers: map[string]string{"": ""}},
		{Name: "usage", User: "alice", Argv: []string{userspace.BinGpasswd}},
	},
	"newgrp": {
		{Name: "protected group with password", User: "charlie",
			Argv:    []string{userspace.BinNewgrp, "ops"},
			Answers: map[string]string{"": world.OpsGroupPassword}},
		{Name: "protected group wrong password", User: "charlie",
			Argv:    []string{userspace.BinNewgrp, "ops"},
			Answers: map[string]string{"": "bad"}},
		{Name: "member joins without password", User: "alice",
			Argv: []string{userspace.BinNewgrp, "ops"}},
		{Name: "nonexistent group", User: "alice",
			Argv: []string{userspace.BinNewgrp, "nosuch"}},
		{Name: "usage", User: "alice", Argv: []string{userspace.BinNewgrp}},
	},
}

// extendedScenarios covers the non-Table-7 utilities of the study; they
// join the corpus via init so RunAll exercises everything.
var extendedScenarios = map[string][]Scenario{
	"traceroute": {
		{Name: "trace to host", User: "alice", Argv: []string{userspace.BinTraceroute, "10.0.0.2"}},
		{Name: "unknown host", User: "alice", Argv: []string{userspace.BinTraceroute, "nowhere"}},
	},
	"mtr": {
		{Name: "probe host", User: "alice", Argv: []string{userspace.BinMtr, "10.0.0.2"}},
		{Name: "unknown host", User: "alice", Argv: []string{userspace.BinMtr, "nowhere"}},
	},
	"arping": {
		{Name: "probe host", User: "alice", Argv: []string{userspace.BinArping, "10.0.0.2"}},
	},
	"fusermount": {
		{Name: "mount over foreign dir denied", User: "alice",
			Argv: []string{userspace.BinFusermount, "/mnt"}},
		{Name: "umount flag without target", User: "alice",
			Argv: []string{userspace.BinFusermount, "-u"}},
	},
	"pppd": {
		{Name: "safe session", User: "alice",
			Argv: []string{userspace.BinPppd, "ppp0", "--param=bsdcomp=15"}},
		{Name: "unsafe option denied", User: "alice",
			Argv: []string{userspace.BinPppd, "ppp0", "--param=defaultroute=1"}},
		{Name: "conflicting route denied", User: "alice",
			Argv: []string{userspace.BinPppd, "ppp0", "--route=10.0.0.0/24"}},
		{Name: "non-conflicting route", User: "alice",
			Argv: []string{userspace.BinPppd, "ppp0", "--route=192.168.77.0/24"}},
		{Name: "route overlapping an earlier one of the request denied", User: "alice",
			Argv: []string{userspace.BinPppd, "ppp0", "--route=10.9.0.0/16", "--route=10.9.2.0/24"}},
		{Name: "refused route takes the session's earlier route down", User: "alice",
			Argv: []string{userspace.BinPppd, "ppp0", "--route=192.168.77.0/24", "--route=10.0.0.0/24"}},
	},
	"dmcrypt-get-device": {
		{Name: "read physical device", User: "alice",
			Argv: []string{userspace.BinDmcrypt, "/dev/dm-0"}},
		{Name: "unknown device", User: "alice",
			Argv: []string{userspace.BinDmcrypt, "/dev/dm-9"}},
	},
	"ssh-keysign": {
		{Name: "sign payload", User: "alice",
			Argv: []string{userspace.BinSSHKeysign, "payload"}},
	},
	"X": {
		{Name: "start server", User: "alice", Argv: []string{userspace.BinXserver}},
	},
	"vipw": {
		{Name: "root edits shell", User: "root",
			Argv:   []string{userspace.BinVipw, "-s", "bob", "/bin/zsh"},
			Effect: shellOf("bob")},
		{Name: "non-root denied", User: "alice",
			Argv: []string{userspace.BinVipw, "-s", "alice", "/bin/zsh"}},
	},
	"chromium-sandbox": {
		{Name: "namespace sandbox", User: "alice",
			Argv: []string{userspace.BinChromiumSandbox}},
	},
	"eject": {
		{Name: "eject unmounted cdrom", User: "alice",
			Argv: []string{userspace.BinEject}, Effect: mountTableEffect},
		{Name: "eject own user mount", User: "alice",
			Setup:  mountAs("alice", "/dev/cdrom", "/cdrom"),
			Argv:   []string{userspace.BinEject, "/dev/cdrom"},
			Effect: mountTableEffect},
		{Name: "eject another user's mount denied", User: "bob",
			Setup:  mountAs("alice", "/dev/cdrom", "/cdrom"),
			Argv:   []string{userspace.BinEject, "/dev/cdrom"},
			Effect: mountTableEffect},
		{Name: "eject unknown device", User: "alice",
			Argv: []string{userspace.BinEject, "/dev/floppy"}},
	},
	"fping": {
		{Name: "multiple hosts", User: "alice",
			Argv: []string{userspace.BinFping, "10.0.0.2", "127.0.0.1"}},
		{Name: "bad host name", User: "alice",
			Argv: []string{userspace.BinFping, "nowhere"}},
		{Name: "usage", User: "alice", Argv: []string{userspace.BinFping}},
	},
	"tracepath": {
		{Name: "path to host", User: "alice",
			Argv: []string{userspace.BinTracepath, "10.0.0.2"}},
		{Name: "unknown host", User: "alice",
			Argv: []string{userspace.BinTracepath, "nowhere"}},
	},
	"login": {
		{Name: "successful login", User: "root",
			Argv:    []string{userspace.BinLogin, "charlie"},
			Answers: map[string]string{"": world.CharliePassword}},
		{Name: "wrong password", User: "root",
			Argv:    []string{userspace.BinLogin, "charlie"},
			Answers: map[string]string{"": "bad"}},
	},
}

// negativeScenarios asserts that *denials* are identical across images:
// the escalation paths the paper closes must be closed the same way on
// both systems (same exit status, same absence of effects), not merely
// closed somehow.
var negativeScenarios = map[string][]Scenario{
	"sudo": {
		// charlie's only sudoers rule is the %wheel NOPASSWD /bin/ls
		// entry; delegating to another *user* is not authorized for him
		// at all, so the -u request must fail identically everywhere.
		{Name: "non-sudoer delegation denied", User: "charlie",
			Argv:    []string{userspace.BinSudo, "-u", "alice", userspace.BinID},
			Answers: map[string]string{"": world.CharliePassword}},
	},
	"mount": {
		// Owning the mount point does not whitelist the device: sdc1 has
		// no "user" fstab option, so even over alice's own home directory
		// the mount must be refused (the Figure 1 flow keys on the
		// (device, point, options) row, not on DAC ownership).
		{Name: "owner cannot mount non-whitelisted device at owned point", User: "alice",
			Argv:   []string{userspace.BinMount, "/dev/sdc1", "/home/alice"},
			Effect: mountTableEffect},
	},
	"ping": {
		// With the raw-socket relaxation removed — setuid bit stripped on
		// the baseline, allow_unpriv_raw switched off on Protego — ping
		// must degrade to the same denial on both systems.
		{Name: "raw socket relaxation removed", User: "alice",
			Setup: func(m *world.Machine) error {
				if m.Protego != nil {
					m.Protego.SetAllowUnprivRaw(false)
					return nil
				}
				return m.K.FS.Chmod(vfs.RootCred, userspace.BinPing, 0o755)
			},
			Argv: []string{userspace.BinPing, "-c", "1", "10.0.0.2"}},
	},
}

func init() {
	for name, list := range extendedScenarios {
		Scenarios[name] = list
	}
	for name, list := range negativeScenarios {
		Scenarios[name] = append(Scenarios[name], list...)
	}
}

func mountAs(user, device, point string) func(m *world.Machine) error {
	return func(m *world.Machine) error {
		sess, err := m.Session(user)
		if err != nil {
			return err
		}
		_, _, _, err = m.Run(sess, []string{userspace.BinMount, device, point}, nil)
		return err
	}
}

// addSudoersFragment writes a sudoers.d file; on Protego the monitoring
// daemon then pushes the delegation policy to the kernel.
func addSudoersFragment(path, content string) func(m *world.Machine) error {
	return func(m *world.Machine) error {
		if err := m.K.FS.WriteFile(vfs.RootCred, path, []byte(content), 0o440, 0, 0); err != nil {
			return err
		}
		if m.Monitor != nil {
			return m.Monitor.SyncDelegation()
		}
		return nil
	}
}

func writeFile(path, content string, mode vfs.Mode) func(m *world.Machine) error {
	return func(m *world.Machine) error {
		return m.K.FS.WriteFile(vfs.RootCred, path, []byte(content), mode, 0, 0)
	}
}
