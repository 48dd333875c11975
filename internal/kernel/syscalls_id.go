package kernel

import (
	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/lsm"
)

// The get*id family cannot fail on Linux and returns no error here either:
// a seccomp denial is recorded on the trace (and in the profile stats) but
// the id is still returned, matching how an errno-returning geteuid would
// be read by callers that never check it.

// Geteuid returns the effective uid.
func (k *Kernel) Geteuid(t *Task) int {
	tok, err := k.enter(t, SysGeteuid)
	k.Trace.SyscallExit(tok, err)
	return t.EUID()
}

// Getpid returns the process id; it is the "null syscall" used by the
// lmbench-style microbenchmark (and therefore the purest measure of the
// trace layer's per-syscall emission cost).
func (k *Kernel) Getpid(t *Task) int {
	tok, err := k.enter(t, SysGetpid)
	pid := t.PID()
	k.Trace.SyscallExit(tok, err)
	return pid
}

// Setuid implements setuid(2) with the Protego extension. Base policy is
// Linux's: CAP_SETUID sets all three ids; otherwise the target must equal
// the real or saved uid. Transitions outside base policy — the lateral
// moves of §4.3 — are referred to the LSM, which may Grant (the kernel
// performs the change immediately), Deny (EPERM), or DeferToExec (success
// is reported but the change is applied at the next exec once the target
// binary is validated against the delegation rules).
func (k *Kernel) Setuid(t *Task, uid int) (err error) {
	tok, err := k.enter(t, SysSetuid)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	if uid < 0 {
		return errno.EINVAL
	}
	creds := t.credsRef()

	if creds.Capable(caps.CAP_SETUID) {
		t.commitCreds(creds, func(c *Credentials) { c.setAllUIDs(uid); c.recomputeCaps() })
		return nil
	}
	// Unprivileged: may move the effective uid between real and saved.
	if uid == creds.RUID || uid == creds.SUID {
		t.commitCreds(creds, func(c *Credentials) { c.EUID, c.FUID = uid, uid })
		return nil
	}
	dec, err := k.LSM.SetuidCheck(t, uid)
	switch dec {
	case lsm.Grant:
		// Restrict inheritance through granted transitions (§4.3):
		// the caller's gid and supplementary groups do not carry
		// over; the kernel establishes the target's (the task could
		// not do so itself unless the target is root).
		gid, groups, ok := k.LSM.ResolveGroups(uid)
		t.commitCreds(creds, func(c *Credentials) {
			c.setAllUIDs(uid)
			if ok {
				c.setAllGIDs(gid)
			}
			c.Groups = append([]int(nil), groups...)
			c.recomputeCaps()
		})
		return nil
	case lsm.DeferToExec:
		// Success is reported to the caller; the credential change is
		// pending and will be validated (and applied) at exec.
		return nil
	default:
		k.Auditf("setuid denied: pid=%d uid=%d target=%d", t.PID(), t.UID(), uid)
		return denyErr(err, errno.EPERM)
	}
}

// Seteuid implements seteuid(2): unprivileged tasks may set the effective
// uid to any of the real, effective, or saved uids.
func (k *Kernel) Seteuid(t *Task, uid int) (err error) {
	tok, err := k.enter(t, SysSeteuid)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	creds := t.credsRef()
	if creds.Capable(caps.CAP_SETUID) || uid == creds.RUID || uid == creds.EUID || uid == creds.SUID {
		t.commitCreds(creds, func(c *Credentials) { c.EUID, c.FUID = uid, uid; c.recomputeCaps() })
		return nil
	}
	return errno.EPERM
}

// Setgid implements setgid(2) with the Protego extension for
// password-protected groups (newgrp, §4.3).
func (k *Kernel) Setgid(t *Task, gid int) (err error) {
	tok, err := k.enter(t, SysSetgid)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	if gid < 0 {
		return errno.EINVAL
	}
	creds := t.credsRef()
	if creds.Capable(caps.CAP_SETGID) {
		t.commitCreds(creds, func(c *Credentials) { c.setAllGIDs(gid) })
		return nil
	}
	if gid == creds.RGID || gid == creds.SGID || creds.InGroup(gid) {
		t.commitCreds(creds, func(c *Credentials) { c.EGID, c.FGID = gid, gid })
		return nil
	}
	dec, err := k.LSM.SetgidCheck(t, gid)
	switch dec {
	case lsm.Grant:
		t.commitCreds(creds, func(c *Credentials) { c.setAllGIDs(gid) })
		return nil
	case lsm.DeferToExec:
		return nil
	default:
		k.Auditf("setgid denied: pid=%d uid=%d target=%d", t.PID(), t.UID(), gid)
		return denyErr(err, errno.EPERM)
	}
}

// Setgroups replaces the supplementary groups; requires CAP_SETGID.
func (k *Kernel) Setgroups(t *Task, groups []int) (err error) {
	tok, err := k.enter(t, SysSetgroups)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	creds := t.credsRef()
	if !creds.Capable(caps.CAP_SETGID) {
		return errno.EPERM
	}
	t.commitCreds(creds, func(c *Credentials) { c.Groups = append([]int(nil), groups...) })
	return nil
}
