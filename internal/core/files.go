package core

import (
	"strings"

	"protego/internal/accountdb"
	"protego/internal/errno"
	"protego/internal/lsm"
)

// FileOpen implements the file policies of §4.4 and Table 4:
//
//   - Trusted-binary grants: files like the ssh host private key may be
//     read by specific whitelisted binaries (ssh-keysign) even though DAC
//     denies — "restrict file access to specific binaries instead of, or
//     in addition to, user IDs". Writes are never granted this way.
//
//   - Shadow reauthentication: reading a per-user shadow fragment
//     (/etc/shadows/<user>) requires a recent authentication even by its
//     owner, mitigating hash leaks from a compromised user process.
func (m *Module) FileOpen(t lsm.Task, req lsm.OpenRequest) (lsm.Decision, error) {
	// Trusted services running as root are exempt: authentication code
	// is trusted in both systems (§5.2).
	if t.EUID() == 0 {
		return lsm.NoOpinion, nil
	}

	if strings.HasPrefix(req.Path, accountdb.ShadowsDir+"/") {
		if !m.auth.RecentlyAuthenticated(t) {
			// The trusted authentication service takes over the
			// terminal (§4.3); only if that fails is the open
			// refused.
			user := m.userName(t.UID())
			if user == "" || m.auth.EnsureRecent(t, user) != nil {
				m.k.Auditf("protego: shadow read without recent auth: uid=%d path=%s", t.UID(), req.Path)
				m.bumpStat(&m.Stats.FileDenials)
				return lsm.Deny, errno.EACCES
			}
		}
		return lsm.NoOpinion, nil // DAC still applies (owner-only)
	}

	if req.DACAllowed || req.Write {
		return lsm.NoOpinion, nil
	}
	m.mu.RLock()
	readers := m.fileGrants[req.Path]
	m.mu.RUnlock()
	for _, binary := range readers {
		if binary == t.BinaryPath() {
			m.bumpStat(&m.Stats.FileGrants)
			return lsm.Grant, nil
		}
	}
	return lsm.NoOpinion, nil
}
