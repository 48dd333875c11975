package world

import (
	"fmt"
	"sync"
	"sync/atomic"

	"protego/internal/accountdb"
	"protego/internal/authsvc"
	"protego/internal/monitord"
	"protego/internal/seccomp"
	"protego/internal/vfs"
)

// Snapshot is a frozen golden image of a machine. Clone stamps out
// independent machines that share the image's file system copy-on-write,
// so cloning costs a small fraction of a fresh Build. The golden machine
// stays usable; mutations on any side are private (sealed inodes are
// copied up before the first write).
type Snapshot struct {
	src *Machine

	// etc and accountFiles are the frozen inodes at /etc and at
	// accountFilePaths; etc is nil if they could not be resolved.
	// converged records that a clone's account sync found them
	// converged, and accounts is the [accounts] section digest of a clone
	// that still has them, computed once (see convergeAccounts and
	// accountsSum).
	etc          *vfs.Inode
	accountFiles [len(accountFilePaths)]*vfs.Inode
	converged    atomic.Bool
	accountsOnce sync.Once
	accounts     uint64
}

// Snapshot freezes the machine's file system and returns a handle for
// stamping clones. The machine should be quiescent (no syscalls in
// flight); afterwards it can keep running — its own writes copy up too.
func (m *Machine) Snapshot() *Snapshot {
	m.K.FS.Freeze()
	s := &Snapshot{src: m}
	if m.accountFiles(s.accountFiles[:]) {
		s.etc, _ = m.K.FS.Lookup(vfs.RootCred, "/etc")
	}
	return s
}

// Clone builds an independent machine from the snapshot. The kernel,
// task table, credentials, netstack, and netfilter table are deep-copied;
// the file system is shared copy-on-write; the LSM stack (AppArmor, and
// on Protego the core module with its policy state) is recreated against
// the clone with the parent's policies; device handlers and the
// /proc/trace and /proc/protego interfaces are rebound to the clone's
// own objects. At clone time the new machine's Fingerprint equals the
// parent's.
func (s *Snapshot) Clone() (*Machine, error) {
	p := s.src
	k := p.K.Clone()
	m := &Machine{K: k, DB: accountdb.NewDB(k.FS), image: s}
	m.registerDeviceHandlers()
	if err := k.RebindTraceProc(); err != nil {
		return nil, fmt.Errorf("world: clone trace proc: %w", err)
	}

	// Same LSM order as Build: AppArmor first, Protego extends it.
	m.AppArmor = p.AppArmor.Clone()
	k.LSM.Register(m.AppArmor)

	m.Auth = authsvc.New(m.DB)
	m.Auth.SetTracer(k.Trace)
	m.Auth.SetWindow(p.Auth.Window())
	if p.Protego != nil {
		mod, err := p.Protego.CloneInto(k, m.DB, m.Auth)
		if err != nil {
			return nil, fmt.Errorf("world: clone protego: %w", err)
		}
		m.Protego = mod
		m.Monitor = monitord.New(k, m.DB, mod)
	}
	if p.Seccomp != nil {
		// Last in the chain, as in Build. Profiles are immutable, so the
		// clone's module shares the parent's set by reference; tasks keep
		// their inherited profile blobs through Kernel.Clone's blob copy,
		// and the syscall gate itself was copied with the kernel.
		m.Seccomp = seccomp.NewModule(p.Seccomp.Set(), p.Seccomp.Audit())
		k.LSM.Register(m.Seccomp)
	}

	m.Init = k.Task(p.Init.PID())
	if m.Init == nil {
		return nil, fmt.Errorf("world: clone lost init (pid %d)", p.Init.PID())
	}
	return m, nil
}
