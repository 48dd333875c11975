package core

import (
	"sync/atomic"

	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/lsm"
	"protego/internal/policy"
)

// Capability shorthands used across the module.
const (
	capSysAdmin = caps.CAP_SYS_ADMIN
	capSetuid   = caps.CAP_SETUID
	capSetgid   = caps.CAP_SETGID
	capNetRaw   = caps.CAP_NET_RAW
	capNetAdmin = caps.CAP_NET_ADMIN
)

// blobPendingSetuid is the task security-blob key recording a deferred
// setuid-on-exec (§4.3): setuid reported success, but the credential
// change happens at the next exec once the target binary is validated.
const blobPendingSetuid = "protego.pending_setuid"

type pendingSetuid struct {
	TargetUID int
}

// PendingSetuid reports the deferred target uid on t, if any (exposed for
// tests and the simulator shell).
func PendingSetuid(t lsm.Task) (int, bool) {
	v := t.SecurityBlob(blobPendingSetuid)
	if v == nil {
		return 0, false
	}
	p, ok := v.(pendingSetuid)
	return p.TargetUID, ok
}

// SetuidCheck mediates lateral transitions (§4.3). The kernel consults this
// hook only when base policy already refused (no CAP_SETUID, target not in
// {ruid, suid}). The decision procedure follows the paper:
//
//  1. If a delegation rule in the synchronized sudoers policy names
//     (user → target), report success but defer the change to exec
//     (setuid-on-exec). ExecCheck looks up the requested binary and
//     authenticates the caller there, so one rule decides both.
//  2. With no rule, the su policy applies: knowing the *target* user's
//     password is both authentication and authorization. The trusted
//     service collects it and the change happens now, where the kernel
//     applies the target's uid, gid and groups as an exec-time grant
//     does (ResolveGroups); failure falls through to base policy (EPERM).
func (m *Module) SetuidCheck(t lsm.Task, targetUID int) (lsm.Decision, error) {
	sudoers := m.Sudoers()
	if sudoers == nil {
		return lsm.NoOpinion, nil
	}
	user := m.userName(t.UID())
	target := m.userName(targetUID)
	if user == "" || target == "" {
		return lsm.NoOpinion, nil
	}
	if sudoers.LookupTransition(user, m.userGroups(user), target) {
		t.SetSecurityBlob(blobPendingSetuid, pendingSetuid{TargetUID: targetUID})
		m.bumpStat(&m.Stats.SetuidDefers)
		return lsm.DeferToExec, nil
	}
	if err := m.auth.AuthenticateUser(t, target, false); err == nil {
		m.bumpStat(&m.Stats.SetuidGrants)
		return lsm.Grant, nil
	}
	m.bumpStat(&m.Stats.SetuidDenials)
	return lsm.NoOpinion, nil
}

// SetgidCheck mediates group transitions. Two policies grant beyond base:
// password-protected groups (the newgrp flow — authenticate with the
// group's password), and explicit sudoers delegation to "%group" targets.
// A group switch takes effect at once and lets the task run any command
// with the group, so only a rule that permits every command delegates it,
// and that rule's NOPASSWD decides whether the caller authenticates.
func (m *Module) SetgidCheck(t lsm.Task, targetGID int) (lsm.Decision, error) {
	group, err := m.db.LookupGID(targetGID)
	if err != nil {
		return lsm.NoOpinion, nil
	}
	if group.Password != "" {
		if err := m.auth.AuthenticateGroup(t, group.Name); err != nil {
			m.k.Auditf("protego: setgid group auth failed: uid=%d gid=%d", t.UID(), targetGID)
			return lsm.Deny, errno.EPERM
		}
		return lsm.Grant, nil
	}
	sudoers := m.Sudoers()
	if sudoers == nil {
		return lsm.NoOpinion, nil
	}
	user := m.userName(t.UID())
	if user == "" {
		return lsm.NoOpinion, nil
	}
	grant, ok := sudoers.LookupCommand(user, m.userGroups(user), "%"+group.Name, "ALL")
	if !ok {
		return lsm.NoOpinion, nil
	}
	if !grant.NoPasswd {
		if err := m.auth.EnsureRecent(t, user); err != nil {
			return lsm.Deny, errno.EPERM
		}
	}
	return lsm.Grant, nil
}

// ExecCheck completes a deferred setuid-on-exec. The sudoers rule that
// permits (user → target, binary) decides: unless it says NOPASSWD, the
// caller must have authenticated recently, and the trusted service takes
// over the terminal if not. With no such rule, or when that
// authentication fails, "the authentication service may also ask for the
// target user's password at this point" (§4.3): the su flow, where
// knowing the target's password authorizes the exec. Otherwise the exec
// fails: with EPERM when no rule permits the binary (the paper's
// deliberate change in error behaviour), with the authentication
// service's EACCES when the caller failed to authenticate, so sudo can
// tell the two apart as the setuid sudo does. On success the environment
// is sanitized per the sudoers env_keep policy and the kernel applies the
// credential change.
func (m *Module) ExecCheck(t lsm.Task, req *lsm.ExecRequest) (*lsm.CredUpdate, error) {
	v := t.SecurityBlob(blobPendingSetuid)
	if v == nil {
		return nil, nil
	}
	t.SetSecurityBlob(blobPendingSetuid, nil)
	pending, ok := v.(pendingSetuid)
	if !ok {
		return nil, errno.EPERM
	}
	sudoers := m.Sudoers()
	if sudoers == nil {
		return nil, errno.EPERM
	}
	user := m.userName(t.UID())
	target := m.userName(pending.TargetUID)
	if user == "" || target == "" {
		return nil, errno.EPERM
	}
	grant, ok := sudoers.LookupCommand(user, m.userGroups(user), target, req.Path)
	var err error = errno.EPERM // no rule permits the binary
	if ok {
		err = nil
		if !grant.NoPasswd {
			err = m.auth.EnsureRecent(t, user)
		}
	}
	if err != nil {
		if m.auth.AuthenticateUser(t, target, false) != nil {
			m.k.Auditf("protego: setuid-on-exec denied: %s -> %s exec %s", user, target, req.Path)
			m.bumpStat(&m.Stats.SetuidDenials)
			return nil, err
		}
		grant = policy.Grant{}
	}
	req.Env = sudoers.SanitizeEnv(req.Env, grant)
	uid := pending.TargetUID
	update := &lsm.CredUpdate{UID: &uid, DropGroups: true}
	if gid, groups, ok := m.ResolveGroups(uid); ok {
		update.GID = &gid
		update.Groups = groups
	}
	m.bumpStat(&m.Stats.SetuidGrants)
	return update, nil
}

// bumpStat increments a decision counter. Lock-free: the Stats fields
// are atomics, so hook fast paths never contend on the module lock just
// to account a grant.
func (m *Module) bumpStat(p *atomic.Int64) {
	p.Add(1)
}
