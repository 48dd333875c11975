// Package apparmor is the AppArmor module the Protego prototype extends
// and the baseline the paper measures against ("Linux with AppArmor").
// No profile confines the studied binaries in that measurement, so the
// module has no opinion on any hook: both images register it first, and
// the chain consults it, counts its no-opinion decisions and traces them
// as it does for any module. As the paper's §1 explains, AppArmor's
// profiles confine a binary from the administrator's perspective only;
// it is Protego's object-based policies that protect against the
// unprivileged user.
package apparmor

import "protego/internal/lsm"

// Module is the AppArmor LSM with no profile loaded.
type Module struct {
	lsm.Base
}

// New creates the module.
func New() *Module { return &Module{} }

// Name implements lsm.Module.
func (m *Module) Name() string { return "apparmor" }

// Clone returns the module for a machine snapshot; it holds no state.
func (m *Module) Clone() *Module { return New() }

var _ lsm.Module = (*Module)(nil)
