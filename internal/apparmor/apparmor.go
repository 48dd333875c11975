// Package apparmor implements a small path-confinement LSM in the style of
// AppArmor, the module the Protego prototype extends and the baseline the
// paper measures against ("Linux with AppArmor"). Profiles attach to
// binaries and restrict which paths a confined task may write and which
// mount points it may operate on. As the paper's §1 explains, this enforces
// least privilege from the *administrator's* perspective only: a confined
// but compromised mount can still "arbitrarily change the file system
// tree" within its profile; it is Protego's object-based policies that
// protect against the unprivileged user.
package apparmor

import (
	"strings"
	"sync"

	"protego/internal/errno"
	"protego/internal/lsm"
	"protego/internal/vfs"
)

// Profile confines one binary.
type Profile struct {
	// Binary is the path of the confined executable.
	Binary string
	// WritePaths are path prefixes the task may write; empty means
	// unrestricted writes.
	WritePaths []string
	// DenyWritePaths are path prefixes always refused, evaluated before
	// WritePaths.
	DenyWritePaths []string
	// MountPoints are path prefixes the task may mount over; empty
	// means unrestricted (subject to base policy).
	MountPoints []string
	// Complain puts the profile in complain (audit-only) mode.
	Complain bool
}

func underAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if vfs.IsUnder(path, strings.TrimSuffix(p, "/")) {
			return true
		}
	}
	return false
}

// Module is the AppArmor LSM.
type Module struct {
	lsm.Base
	mu       sync.RWMutex
	profiles map[string]*Profile

	// Denials counts enforced denials, observable by tests.
	Denials int
}

// New creates an AppArmor module with no profiles loaded (the permissive
// baseline configuration the paper benchmarks against).
func New() *Module {
	return &Module{profiles: make(map[string]*Profile)}
}

// Name implements lsm.Module.
func (m *Module) Name() string { return "apparmor" }

// LoadProfile installs (or replaces) a profile.
func (m *Module) LoadProfile(p *Profile) {
	m.mu.Lock()
	m.profiles[vfs.CleanPath(p.Binary, "/")] = p
	m.mu.Unlock()
}

// RemoveProfile unloads the profile for binary.
func (m *Module) RemoveProfile(binary string) {
	m.mu.Lock()
	delete(m.profiles, vfs.CleanPath(binary, "/"))
	m.mu.Unlock()
}

// Profiles returns the number of loaded profiles.
func (m *Module) Profiles() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.profiles)
}

func (m *Module) profileFor(t lsm.Task) *Profile {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.profiles[t.BinaryPath()]
}

// FileOpen denies writes outside the profile's write set.
func (m *Module) FileOpen(t lsm.Task, req lsm.OpenRequest) (lsm.Decision, error) {
	p := m.profileFor(t)
	if p == nil || !req.Write {
		return lsm.NoOpinion, nil
	}
	if underAny(req.Path, p.DenyWritePaths) ||
		(len(p.WritePaths) > 0 && !underAny(req.Path, p.WritePaths)) {
		if p.Complain {
			return lsm.NoOpinion, nil
		}
		m.mu.Lock()
		m.Denials++
		m.mu.Unlock()
		return lsm.Deny, errno.EACCES
	}
	return lsm.NoOpinion, nil
}

// MountCheck denies mounts outside the profile's mount set.
func (m *Module) MountCheck(t lsm.Task, req *lsm.MountRequest) (lsm.Decision, error) {
	p := m.profileFor(t)
	if p == nil || len(p.MountPoints) == 0 {
		return lsm.NoOpinion, nil
	}
	if !underAny(req.Point, p.MountPoints) {
		if p.Complain {
			return lsm.NoOpinion, nil
		}
		m.mu.Lock()
		m.Denials++
		m.mu.Unlock()
		return lsm.Deny, errno.EACCES
	}
	return lsm.NoOpinion, nil
}

var _ lsm.Module = (*Module)(nil)

// Clone returns an independent module with the same profiles loaded and a
// fresh denial counter. Profiles are immutable once loaded, so the
// pointers are shared; the map is copied so LoadProfile/RemoveProfile on
// either side stays private. Used by machine snapshots.
func (m *Module) Clone() *Module {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := New()
	for path, p := range m.profiles {
		c.profiles[path] = p
	}
	return c
}
