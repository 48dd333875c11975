package core

import (
	"protego/internal/lsm"
	"protego/internal/policy"
	"protego/internal/vfs"
)

// mountKey is the whitelist's dispatch key: every row pins both a device
// and a mount point, so a decision is one map probe plus the row's own
// check (policy.FstabEntry's user-mount decision).
type mountKey struct {
	device string
	point  string
}

// rebuildMountIndexLocked re-indexes m.mounts by (device, point). The
// first row at a key decides, as the first fstab row does for mount(8).
// Caller holds m.mu exclusively.
func (m *Module) rebuildMountIndexLocked() {
	idx := make(map[mountKey]*policy.FstabEntry, len(m.mounts))
	for i := range m.mounts {
		r := &m.mounts[i]
		if key := (mountKey{device: r.Device, point: r.MountPoint}); idx[key] == nil {
			idx[key] = r
		}
	}
	m.mountIdx = idx
}

// SetMountRules replaces the whitelist and re-indexes it. The rows are
// copied; their option slices are shared and must not be written.
func (m *Module) SetMountRules(rows []policy.FstabEntry) {
	m.mu.Lock()
	m.mounts = append([]policy.FstabEntry(nil), rows...)
	m.rebuildMountIndexLocked()
	m.mu.Unlock()
}

// MountRules returns a snapshot of the whitelist.
func (m *Module) MountRules() []policy.FstabEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]policy.FstabEntry(nil), m.mounts...)
}

// MountRow returns the whitelist row that decides a user's mount or
// unmount of device on point, or nil. The row is shared: only read it.
func (m *Module) MountRow(device, point string) *policy.FstabEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.mountIdx[mountKey{device: device, point: point}]
}

// MountCheck implements the Figure 1 flow: an unprivileged mount succeeds
// iff the whitelist row at its (device, point) permits it, and then mounts
// what the row yields (the request is rewritten, as ExecCheck filters an
// exec's environment).
func (m *Module) MountCheck(t lsm.Task, req *lsm.MountRequest) (lsm.Decision, error) {
	if t.Capable(capSysAdmin) {
		return lsm.NoOpinion, nil // administrator path: base policy
	}
	m.mu.RLock()
	broken := m.brokenMountPolicy
	m.mu.RUnlock()
	if broken {
		// Test hook: whitelist check disabled (see TestHookBreakMountPolicy).
		m.bumpStat(&m.Stats.MountGrants)
		return lsm.Grant, nil
	}
	// FUSE mounts (fusermount) are grantable over directories the caller
	// owns: the file system contents are under the user's control anyway,
	// so ownership of the mount point is the natural object-based policy.
	if req.FSType == "fuse" {
		if ino, err := m.k.FS.Lookup(vfs.RootCred, req.Point); err == nil &&
			ino.Mode.IsDir() && ino.UID == t.UID() {
			m.bumpStat(&m.Stats.MountGrants)
			return lsm.Grant, nil
		}
		m.bumpStat(&m.Stats.MountDenials)
		return lsm.NoOpinion, nil
	}
	row := m.MountRow(req.Device, req.Point)
	if row != nil {
		m.mountIdxHits.Add(1)
	}
	if row == nil || !row.PermitsUserMount(req.FSType, req.Options) {
		m.bumpStat(&m.Stats.MountDenials)
		return lsm.NoOpinion, nil // base policy denies (EPERM)
	}
	req.FSType, req.Options = row.MountWith(req.FSType, req.Options)
	m.bumpStat(&m.Stats.MountGrants)
	return lsm.Grant, nil
}

// UmountCheck grants an unprivileged unmount when the row at the mount's
// (device, point) allows it, as umount(8) and fusermount -u decide.
func (m *Module) UmountCheck(t lsm.Task, req *lsm.UmountRequest) (lsm.Decision, error) {
	if t.Capable(capSysAdmin) {
		return lsm.NoOpinion, nil
	}
	if m.MountRow(req.Device, req.Point).MayUnmount(req.FSType, req.MountedBy, t.UID()) {
		return lsm.Grant, nil
	}
	return lsm.NoOpinion, nil
}
