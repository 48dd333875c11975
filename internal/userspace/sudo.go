package userspace

import (
	"fmt"
	"time"

	"protego/internal/accountdb"
	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/policy"
)

// BinSudoeditHelper performs sudoedit's privileged file access after a
// validated setuid-on-exec transition (Protego mode).
const BinSudoeditHelper = "/usr/lib/sudoedit-helper"

// sudoTimestampDir holds the baseline sudo's per-user authentication
// timestamps (the userspace ancestor of Protego's in-kernel recency).
const sudoTimestampDir = "/var/run/sudo"

// readSudoers loads and parses /etc/sudoers plus /etc/sudoers.d/* with the
// task's credentials (euid 0 on the baseline). The policy is the memo's
// shared parse of the concatenation.
func readSudoers(k *kernel.Kernel, t *kernel.Task) (*policy.Sudoers, error) {
	data, err := k.ReadFile(t, "/etc/sudoers")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if names, err := k.ReadDir(t, "/etc/sudoers.d"); err == nil {
		for _, name := range names {
			frag, err := k.ReadFile(t, "/etc/sudoers.d/"+name)
			if err == nil {
				data = append(append(data, frag...), '\n')
			}
		}
	}
	return policy.MemoSudoers(k.FS.Memo(), data)
}

// baselineAuthenticate implements the setuid sudo's own password check:
// recent timestamp file, or prompt and verify against /etc/shadow (which
// the euid-0 process can read), then refresh the timestamp.
func baselineAuthenticate(k *kernel.Kernel, t *kernel.Task, user *accountdb.User, window time.Duration) bool {
	stampPath := sudoTimestampDir + "/" + user.Name
	if ino, err := k.FS.Lookup(t.Creds(), stampPath); err == nil {
		if time.Since(ino.Mtime) <= window {
			return true
		}
	}
	password := t.Ask("[sudo] password for " + user.Name + ": ")
	shadow, err := k.ReadFile(t, "/etc/shadow")
	if err != nil {
		return false
	}
	entries, err := accountdb.ParseShadow(string(shadow))
	if err != nil {
		return false
	}
	for i := range entries {
		if entries[i].Name == user.Name {
			if accountdb.VerifyPassword(entries[i].Hash, password) {
				_ = k.WriteFile(t, stampPath, []byte("1"))
				return true
			}
			return false
		}
	}
	return false
}

// SudoMain implements sudo(8): sudo [-u target] command [args...]
//
// Baseline: the binary runs euid 0 from the moment of exec; it parses
// sudoers, authenticates, sanitizes the environment, and only then
// switches uid — every historical exploit in Table 6 ran inside this
// window. Protego: the process never holds privilege. When a sudoers rule
// delegates (user → target), setuid(2) only records the target and the
// transition completes at exec, where the kernel looks up the binary and
// authenticates the caller through the trusted service. With no rule,
// setuid(2) follows su: the target's password grants at once. Either way
// the kernel sets the target's gid and groups, so sudo never calls
// setgid(2) or setgroups(2) here.
func SudoMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	targetName := "root"
	if len(args) >= 2 && args[0] == "-u" {
		targetName = args[1]
		args = args[2:]
	}
	if len(args) == 0 {
		t.Errorf("usage: sudo [-u user] command [args...]\n")
		return 1
	}
	cmd := args[0]
	user, err := currentUser(k, t)
	if err != nil {
		t.Errorf("sudo: cannot identify caller: %v\n", err)
		return 1
	}
	target, err := userByName(k, targetName)
	if err != nil {
		t.Errorf("sudo: unknown user %s\n", targetName)
		return 1
	}

	if !protego(k) {
		// ---- Trusted-binary path (euid 0 throughout). ----
		if t.EUID() != 0 {
			t.Errorf("sudo: must be setuid root\n")
			return 1
		}
		sudoers, err := readSudoers(k, t)
		if err != nil {
			t.Errorf("sudo: cannot read sudoers: %v\n", err)
			return 1
		}
		// Injection point: parsing attacker-influenced input with
		// full privilege (CVE-2002-0184, CVE-2009-0034, ...).
		maybeExploit(k, t)
		db := accountdb.NewDB(k.FS)
		groups, _ := db.GroupNamesOf(user.Name)
		grant, ok := sudoers.LookupCommand(user.Name, groups, targetName, cmd)
		if !ok {
			t.Errorf("sudo: %s is not allowed to run %s as %s\n", user.Name, cmd, targetName)
			return 1
		}
		if user.UID != 0 && !grant.NoPasswd {
			if !baselineAuthenticate(k, t, user, sudoers.TimestampTimeout) {
				t.Errorf("sudo: authentication failure\n")
				return 1
			}
		}
		env := sudoers.SanitizeEnv(t.Env(), grant)
		env["SUDO_USER"] = user.Name
		// Establish the target's groups while still privileged, then
		// switch uid last (the classic ordering from "Setuid
		// Demystified").
		gids, _ := db.GroupIDsOf(targetName)
		_ = k.Setgroups(t, gids)
		_ = k.Setgid(t, target.GID)
		if err := k.Setuid(t, target.UID); err != nil {
			t.Errorf("sudo: setuid: %v\n", err)
			return 1
		}
		code, err := k.Exec(t, cmd, args, env)
		if err != nil {
			t.Errorf("sudo: %s: %v\n", cmd, err)
			return 1
		}
		return code
	}

	// ---- Deprivileged path: the kernel enforces everything. ----
	maybeExploit(k, t) // a compromised sudo holds no privilege here
	env := t.Env()
	env["SUDO_USER"] = user.Name
	if err := k.Setuid(t, target.UID); err != nil {
		if err == errno.EPERM {
			t.Errorf("sudo: %s is not allowed to run as %s\n", user.Name, targetName)
		} else {
			t.Errorf("sudo: %v\n", err)
		}
		return 1
	}
	code, err := k.Exec(t, cmd, args, env)
	if err != nil {
		// The deferred setuid-on-exec check failed: no rule permits
		// the command, or the caller failed to authenticate (§4.3).
		t.Errorf("sudo: %s: %v\n", cmd, err)
		return 1
	}
	return code
}

// SuMain implements su(1): su [target] [-c command]. Authorization is the
// *target's* password (§4.3).
func SuMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	targetName := "root"
	var command string
	for i := 0; i < len(args); i++ {
		if args[i] == "-c" {
			if i+1 >= len(args) {
				t.Errorf("su: -c needs an argument\n")
				return 1
			}
			i++
			command = args[i]
		} else {
			targetName = args[i]
		}
	}
	target, err := userByName(k, targetName)
	if err != nil {
		t.Errorf("su: user %s does not exist\n", targetName)
		return 1
	}

	if !protego(k) {
		if t.EUID() != 0 {
			t.Errorf("su: must be setuid root\n")
			return 1
		}
		maybeExploit(k, t) // CVE-2000-0996, CVE-2002-0816
		if t.UID() != 0 {
			password := t.Ask("Password: ")
			shadow, err := k.ReadFile(t, "/etc/shadow")
			if err != nil {
				t.Errorf("su: cannot read shadow\n")
				return 1
			}
			entries, _ := accountdb.ParseShadow(string(shadow))
			ok := false
			for i := range entries {
				if entries[i].Name == targetName && accountdb.VerifyPassword(entries[i].Hash, password) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("su: Authentication failure\n")
				return 1
			}
		}
		gids, _ := accountdb.NewDB(k.FS).GroupIDsOf(targetName)
		_ = k.Setgroups(t, gids)
		_ = k.Setgid(t, target.GID)
		if err := k.Setuid(t, target.UID); err != nil {
			t.Errorf("su: %v\n", err)
			return 1
		}
	} else {
		maybeExploit(k, t)
		// The kernel's su policy collects and verifies the target's
		// password through the trusted authentication service: at
		// setuid, or, when a sudoers rule names (user → target), at
		// the exec of the shell if the rules do not admit it already.
		// The kernel sets the target's gid and groups with the uid.
		if err := k.Setuid(t, target.UID); err != nil {
			t.Errorf("su: Authentication failure\n")
			return 1
		}
	}

	shell := target.Shell
	if shell == "" {
		shell = BinSh
	}
	argv := []string{shell}
	if command != "" {
		argv = append(argv, "-c", command)
	}
	code, err := k.Exec(t, shell, argv, nil)
	if err != nil {
		t.Errorf("su: %s: %v\n", shell, err)
		return 1
	}
	return code
}

// SudoeditMain implements sudoedit <file>: privileged file access through
// delegation. On the baseline the euid-0 process reads the file itself
// after a sudoers check; on Protego it defers a root transition and execs
// the whitelisted helper, so only the helper's narrow operation ever runs
// with privilege.
func SudoeditMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	if len(args) != 1 {
		t.Errorf("usage: sudoedit <file>\n")
		return 1
	}
	file := args[0]
	user, err := currentUser(k, t)
	if err != nil {
		t.Errorf("sudoedit: cannot identify caller: %v\n", err)
		return 1
	}

	if !protego(k) {
		if t.EUID() != 0 {
			t.Errorf("sudoedit: must be setuid root\n")
			return 1
		}
		sudoers, err := readSudoers(k, t)
		if err != nil {
			t.Errorf("sudoedit: cannot read sudoers: %v\n", err)
			return 1
		}
		maybeExploit(k, t) // CVE-2004-1689
		db := accountdb.NewDB(k.FS)
		groups, _ := db.GroupNamesOf(user.Name)
		if _, ok := sudoers.LookupCommand(user.Name, groups, "root", BinSudoeditHelper); !ok {
			t.Errorf("sudoedit: %s may not edit files as root\n", user.Name)
			return 1
		}
		data, err := k.ReadFile(t, file)
		if err != nil {
			t.Errorf("sudoedit: %s: %v\n", file, err)
			return 1
		}
		t.Printf("%s", data)
		return 0
	}

	maybeExploit(k, t)
	if err := k.Setuid(t, 0); err != nil {
		t.Errorf("sudoedit: not permitted\n")
		return 1
	}
	code, err := k.Exec(t, BinSudoeditHelper, []string{BinSudoeditHelper, file}, nil)
	if err != nil {
		t.Errorf("sudoedit: %v\n", err)
		return 1
	}
	return code
}

// SudoeditHelperMain is the privileged tail of sudoedit: it runs only
// after the kernel has validated the delegated transition.
func SudoeditHelperMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	if len(args) != 1 {
		t.Errorf("sudoedit-helper: usage: sudoedit-helper <file>\n")
		return 1
	}
	data, err := k.ReadFile(t, args[0])
	if err != nil {
		t.Errorf("sudoedit-helper: %s: %v\n", args[0], err)
		return 1
	}
	t.Printf("%s", data)
	return 0
}

// NewgrpMain implements newgrp(1): join a (possibly password-protected)
// group and start a shell with the new primary gid.
func NewgrpMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	if len(args) != 1 {
		t.Errorf("usage: newgrp <group>\n")
		return 1
	}
	db := accountdb.NewDB(k.FS)
	group, err := db.LookupGroup(args[0])
	if err != nil {
		t.Errorf("newgrp: group %s does not exist\n", args[0])
		return 1
	}
	user, err := currentUser(k, t)
	if err != nil {
		t.Errorf("newgrp: cannot identify caller\n")
		return 1
	}

	if !protego(k) {
		if t.EUID() != 0 {
			t.Errorf("newgrp: must be setuid root\n")
			return 1
		}
		maybeExploit(k, t) // 6 historical CVEs, Table 6
		member := false
		for _, m := range group.Members {
			if m == user.Name {
				member = true
				break
			}
		}
		if !member && user.GID != group.GID {
			if group.Password == "" {
				t.Errorf("newgrp: permission denied\n")
				return 1
			}
			password := t.Ask("Password: ")
			if !accountdb.VerifyPassword(group.Password, password) {
				t.Errorf("newgrp: permission denied\n")
				return 1
			}
		}
		if err := k.Setgid(t, group.GID); err != nil {
			t.Errorf("newgrp: %v\n", err)
			return 1
		}
		if err := k.Setuid(t, user.UID); err != nil {
			t.Errorf("newgrp: %v\n", err)
			return 1
		}
	} else {
		maybeExploit(k, t)
		// Base policy admits members; the Protego LSM authenticates
		// password-protected groups via the trusted service.
		if err := k.Setgid(t, group.GID); err != nil {
			t.Errorf("newgrp: permission denied\n")
			return 1
		}
	}

	fmt.Fprintf(t.Stdout, "gid=%d\n", t.EGID())
	code, err := k.Exec(t, BinSh, []string{BinSh}, nil)
	if err != nil {
		return 1
	}
	return code
}
