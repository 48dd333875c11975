package kernel

import (
	"slices"

	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/lsm"
	"protego/internal/vfs"
)

// Mount implements mount(2). Base policy: CAP_SYS_ADMIN required (the
// coarse check that forced /bin/mount to be setuid root). On Protego, the
// LSM hook consults the in-kernel user-mount whitelist synchronized from
// /etc/fstab and may Grant the call for an unprivileged task, rewriting
// the fstype and options to what the whitelist row yields — the right
// half of the paper's Figure 1.
func (k *Kernel) Mount(t *Task, device, point, fstype string, options []string) (err error) {
	tok, err := k.enter(t, SysMount)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	req := &lsm.MountRequest{
		Device:  device,
		Point:   vfs.CleanPath(point, t.Cwd()),
		FSType:  fstype,
		Options: append([]string(nil), options...),
	}
	dec, err := k.LSM.MountCheck(t, req)
	if dec == lsm.Deny {
		k.Auditf("mount denied by lsm: pid=%d uid=%d dev=%s point=%s", t.PID(), t.UID(), device, req.Point)
		return denyErr(err, errno.EPERM)
	}
	privileged := t.Capable(caps.CAP_SYS_ADMIN)
	if !privileged && dec != lsm.Grant {
		k.Auditf("mount denied: pid=%d uid=%d dev=%s point=%s (no CAP_SYS_ADMIN)", t.PID(), t.UID(), device, req.Point)
		return errno.EPERM
	}
	// Mechanism. The attach resolves the mount point with the caller's
	// credentials, so a user cannot mount over a directory they cannot
	// even reach.
	m := &vfs.Mount{
		Device:    device,
		Point:     req.Point,
		FSType:    req.FSType,
		Options:   req.Options,
		ReadOnly:  slices.Contains(req.Options, "ro"),
		MountedBy: t.UID(),
		UserMount: !privileged,
	}
	return k.FS.AttachMount(t.credsRef(), m)
}

// Umount implements umount(2) under the same split: CAP_SYS_ADMIN or an
// LSM grant (user entries in /etc/fstab are unmountable by users).
func (k *Kernel) Umount(t *Task, point string) (err error) {
	tok, err := k.enter(t, SysUmount)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	clean := vfs.CleanPath(point, t.Cwd())
	existing := k.FS.MountAt(clean)
	if existing == nil {
		return errno.EINVAL
	}
	req := &lsm.UmountRequest{
		Point:     clean,
		Device:    existing.Device,
		FSType:    existing.FSType,
		MountedBy: existing.MountedBy,
	}
	dec, err := k.LSM.UmountCheck(t, req)
	if dec == lsm.Deny {
		k.Auditf("umount denied by lsm: pid=%d uid=%d point=%s", t.PID(), t.UID(), clean)
		return denyErr(err, errno.EPERM)
	}
	if !t.Capable(caps.CAP_SYS_ADMIN) && dec != lsm.Grant {
		k.Auditf("umount denied: pid=%d uid=%d point=%s", t.PID(), t.UID(), clean)
		return errno.EPERM
	}
	_, err = k.FS.DetachMount(t.credsRef(), clean)
	return err
}
