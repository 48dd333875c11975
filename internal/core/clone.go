package core

import (
	"maps"

	"protego/internal/accountdb"
	"protego/internal/authsvc"
	"protego/internal/kernel"
)

// CloneInto copies the module's policy state onto a freshly cloned
// kernel and installs it there: the new module is registered in k's LSM
// chain, its mount-index counter lands on k's tracer, and k's proc table
// binds the shared /proc/protego inodes to the new module's handlers.
// Unlike Install, no default netfilter rules are appended (the cloned
// table already carries them) and no monitord sync runs — the golden
// image was synced before the snapshot.
//
// Parsed policy objects (sudoers, ppp options) and the mount whitelist
// with its index are immutable once installed (a reload replaces them
// whole), so they are shared; everything mutable — bind table, file
// grants, the raw-socket and broken-policy switches — is copied. The
// module is built from these directly, so no default policy is made only
// to be replaced. Decision statistics and the identity cache start fresh,
// giving per-clone counters.
func (m *Module) CloneInto(k *kernel.Kernel, db *accountdb.DB, auth *authsvc.Service) (*Module, error) {
	m.mu.RLock()
	c := &Module{
		k:                 k,
		db:                db,
		auth:              auth,
		mounts:            m.mounts,
		mountIdx:          m.mountIdx,
		bindTable:         maps.Clone(m.bindTable),
		sudoers:           m.sudoers,
		ppp:               m.ppp,
		fileGrants:        make(map[string][]string, len(m.fileGrants)),
		allowUnprivRaw:    m.allowUnprivRaw,
		brokenMountPolicy: m.brokenMountPolicy,
	}
	for path, bins := range m.fileGrants {
		c.fileGrants[path] = append([]string(nil), bins...)
	}
	m.mu.RUnlock()
	auth.SetWindow(m.auth.Window())

	k.LSM.Register(c)
	k.Trace.RegisterAtomic("mountidx.hit", &c.mountIdxHits)
	if err := c.rebindProc(); err != nil {
		return nil, err
	}
	return c, nil
}

// rebindProc binds the /proc/protego files to this module's handlers in
// its kernel's proc table; the shared snapshot inodes are not copied up,
// and the parent machine's table keeps its own module's handlers.
func (m *Module) rebindProc() error {
	for _, f := range m.procFiles() {
		if err := m.k.FS.RebindProc(f.path, f.read, f.write); err != nil {
			return err
		}
	}
	return nil
}
