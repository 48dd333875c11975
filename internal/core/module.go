// Package core implements the Protego LSM — the paper's primary
// contribution. It migrates the policies historically encoded in
// setuid-to-root binaries into the (simulated) kernel:
//
//   - a user-mount whitelist synchronized from /etc/fstab (§4.2, Figure 1)
//   - a privileged-port allocation table from /etc/bind (§4.1.3)
//   - delegation rules from /etc/sudoers with authentication recency and
//     deferred setuid-on-exec (§4.3)
//   - unprivileged raw sockets subject to netfilter rules (§4.1.1)
//   - PPP route/modem policies with route-conflict checking (§4.1.2)
//   - per-account credential files and trusted-binary file grants (§4.4)
//
// The module exposes /proc/protego/* configuration files, each taking the
// text of the legacy file it mirrors; the monitoring daemon
// (internal/monitord) copies each legacy file into its /proc file when it
// changes.
package core

import (
	"sync"
	"sync/atomic"

	"protego/internal/accountdb"
	"protego/internal/authsvc"
	"protego/internal/kernel"
	"protego/internal/lsm"
	"protego/internal/netfilter"
	"protego/internal/policy"
)

// Module is the Protego LSM.
type Module struct {
	lsm.Base

	k    *kernel.Kernel
	db   *accountdb.DB
	auth *authsvc.Service

	mu sync.RWMutex

	// Policy state (the in-kernel mirrors of the legacy config files).
	mounts     []policy.FstabEntry
	bindTable  map[bindKey]BindTarget
	sudoers    *policy.Sudoers
	ppp        *policy.PPPOptions
	fileGrants map[string][]string // path -> binaries allowed despite DAC

	// mountIdx indexes the whitelist rows by (device, point), rebuilt on
	// every rule change so MountCheck/UmountCheck are map probes instead
	// of linear scans.
	mountIdx map[mountKey]*policy.FstabEntry

	// mountIdxHits counts MountCheck decisions that found a row in the
	// index (exported through the tracer as "mountidx.hit").
	mountIdxHits atomic.Uint64

	// allowUnprivRaw is the raw-socket relaxation (§4.1.1), on by default;
	// Table 7's "raw socket relaxation removed" scenario turns it off.
	allowUnprivRaw bool

	// brokenMountPolicy deliberately grants every unprivileged mount,
	// bypassing the whitelist. It exists ONLY so the differential fuzzer
	// can prove it detects a broken policy; nothing in the simulated
	// system sets it.
	brokenMountPolicy bool

	// identity caches the uid<->name mapping so hot-path policy checks
	// do not reparse /etc/passwd (monitord invalidates on change).
	identity identityCache

	// Stats for tests and the evaluation harness.
	Stats Stats
}

// Stats counts policy decisions. Each field is an atomic so the hot
// LSM hook paths bump it without taking the module lock; read with
// Load (the totals are monotonic, per-CPU-counter style).
type Stats struct {
	MountGrants   atomic.Int64
	MountDenials  atomic.Int64
	BindGrants    atomic.Int64
	BindDenials   atomic.Int64
	SetuidGrants  atomic.Int64
	SetuidDefers  atomic.Int64
	SetuidDenials atomic.Int64
	RawSockGrants atomic.Int64
	RouteGrants   atomic.Int64
	RouteDenials  atomic.Int64
	FileGrants    atomic.Int64
	FileDenials   atomic.Int64
}

// New creates the Protego module over the kernel's substrates. Call
// Install to register it with the kernel, set up the /proc interface, and
// load the default netfilter rules.
func New(k *kernel.Kernel, db *accountdb.DB, auth *authsvc.Service) *Module {
	return &Module{
		k:              k,
		db:             db,
		auth:           auth,
		bindTable:      make(map[bindKey]BindTarget),
		ppp:            policy.DefaultPPPOptions(),
		fileGrants:     make(map[string][]string),
		allowUnprivRaw: true,
	}
}

// Install registers the module in the kernel's LSM chain, creates the
// /proc/protego configuration files, and installs the default raw-socket
// netfilter rules.
func (m *Module) Install() error {
	m.k.LSM.Register(m)
	m.k.Trace.RegisterAtomic("mountidx.hit", &m.mountIdxHits)
	if err := m.setupProc(); err != nil {
		return err
	}
	for _, r := range netfilter.ProtegoDefaultRules() {
		if err := m.k.Filter.Append("OUTPUT", r); err != nil {
			return err
		}
	}
	return nil
}

// Name implements lsm.Module.
func (m *Module) Name() string { return "protego" }

// SetSudoers replaces the delegation policy and propagates the
// timestamp_timeout to the authentication service.
func (m *Module) SetSudoers(s *policy.Sudoers) {
	m.mu.Lock()
	m.sudoers = s
	m.mu.Unlock()
	if s != nil {
		m.auth.SetWindow(s.TimestampTimeout)
	}
}

// Sudoers returns the current delegation policy (may be nil).
func (m *Module) Sudoers() *policy.Sudoers {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.sudoers
}

// SetPPP replaces the PPP policy.
func (m *Module) SetPPP(o *policy.PPPOptions) {
	m.mu.Lock()
	m.ppp = o
	m.mu.Unlock()
}

// AllowFileReaders grants the listed binaries read access to path despite
// DAC — the ssh-keysign host-key rule of §4.4/Table 4 ("restrict file
// access to specific binaries instead of, or in addition to, user IDs").
func (m *Module) AllowFileReaders(path string, binaries ...string) {
	m.mu.Lock()
	m.fileGrants[path] = append(m.fileGrants[path], binaries...)
	m.mu.Unlock()
}

// SetAllowUnprivRaw toggles the raw-socket relaxation (Table 7's "raw
// socket relaxation removed" scenario turns it off).
func (m *Module) SetAllowUnprivRaw(on bool) {
	m.mu.Lock()
	m.allowUnprivRaw = on
	m.mu.Unlock()
}

// TestHookBreakMountPolicy disables the mount whitelist check, granting
// every unprivileged mount request. This is a deliberate vulnerability
// switch for the differential fuzzer's self-test (it must catch the
// resulting invariant violations and shrink them); it has no legitimate
// runtime use.
func (m *Module) TestHookBreakMountPolicy(on bool) {
	m.mu.Lock()
	m.brokenMountPolicy = on
	m.mu.Unlock()
}

var _ lsm.Module = (*Module)(nil)
