// Package kernel implements the simulated operating system kernel at the
// heart of the Protego reproduction: tasks with full Unix credentials and
// Linux-style capability sets, the system call layer (file system, mount,
// network, identity, exec), the /proc policy-configuration interface, and
// the LSM mediation points. Two kernel "builds" share this code: the
// baseline (setuid bits honored, policies enforced in userspace, AppArmor
// confinement) and Protego (setuid bits absent, policies enforced here via
// the Protego LSM).
package kernel

import (
	"fmt"

	"protego/internal/caps"
)

// Credentials is a task's subjective security context, following the Linux
// cred struct: real, effective, saved, and filesystem user/group ids, the
// supplementary groups, and the capability sets.
type Credentials struct {
	RUID, EUID, SUID, FUID int
	RGID, EGID, SGID, FGID int
	Groups                 []int

	Effective   caps.Set
	Permitted   caps.Set
	Inheritable caps.Set
}

// RootCreds returns the credentials of a root task: uid/gid 0 and the full
// capability set, as Linux grants by default (§3.2: "By default, Linux
// gives all capabilities to a process running as root").
func RootCreds() *Credentials {
	full := caps.Full()
	return &Credentials{
		Effective: full,
		Permitted: full,
	}
}

// UserCreds returns the credentials of an ordinary user task with no
// capabilities.
func UserCreds(uid, gid int, groups ...int) *Credentials {
	return &Credentials{
		RUID: uid, EUID: uid, SUID: uid, FUID: uid,
		RGID: gid, EGID: gid, SGID: gid, FGID: gid,
		Groups: append([]int(nil), groups...),
	}
}

// Clone returns a deep copy of the credentials.
func (c *Credentials) Clone() *Credentials {
	out := *c
	out.Groups = append([]int(nil), c.Groups...)
	return &out
}

// FSUID implements vfs.Cred.
func (c *Credentials) FSUID() int { return c.FUID }

// FSGID implements vfs.Cred.
func (c *Credentials) FSGID() int { return c.FGID }

// InGroup implements vfs.Cred.
func (c *Credentials) InGroup(gid int) bool {
	if gid == c.EGID || gid == c.FGID {
		return true
	}
	for _, g := range c.Groups {
		if g == gid {
			return true
		}
	}
	return false
}

// Capable implements vfs.Cred: membership of cap in the effective set.
func (c *Credentials) Capable(cp caps.Cap) bool { return c.Effective.Has(cp) }

// setAllUIDs sets every uid field (the effect of a privileged setuid).
func (c *Credentials) setAllUIDs(uid int) {
	c.RUID, c.EUID, c.SUID, c.FUID = uid, uid, uid, uid
}

// setAllGIDs sets every gid field.
func (c *Credentials) setAllGIDs(gid int) {
	c.RGID, c.EGID, c.SGID, c.FGID = gid, gid, gid, gid
}

// recomputeCaps applies the Linux rule that transitioning the effective uid
// away from 0 drops the effective capability set, and transitioning to 0
// raises it to the full set.
func (c *Credentials) recomputeCaps() {
	if c.EUID == 0 {
		c.Effective = caps.Full()
		c.Permitted = caps.Full()
	} else if c.RUID != 0 && c.SUID != 0 {
		c.Effective = caps.Empty
		c.Permitted = caps.Empty
	} else {
		// euid != 0 but some identity is still root: effective caps
		// are dropped but remain permitted (re-raisable), as Linux
		// does for temporarily-deprivileged setuid daemons.
		c.Effective = caps.Empty
	}
}

// String summarizes the credentials for logs and the simulator shell.
func (c *Credentials) String() string {
	return fmt.Sprintf("uid=%d(%d,%d) gid=%d(%d,%d) groups=%v caps=%s",
		c.RUID, c.EUID, c.SUID, c.RGID, c.EGID, c.SGID, c.Groups, c.Effective)
}
