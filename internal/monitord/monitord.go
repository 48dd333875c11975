// Package monitord implements the trusted monitoring daemon of the Protego
// design (Table 2: 400 lines of Python in the paper, built on inotify).
// It watches the legacy, policy-relevant configuration files — /etc/fstab,
// /etc/sudoers (+/etc/sudoers.d), /etc/bind, /etc/ppp/options — and copies
// each file's text into the /proc/protego file that takes it, where the
// Protego LSM parses it: the flow of Figure 1. It also keeps the
// fragmented per-account credential files and the legacy shared databases
// synchronized in both directions for backward compatibility (§2, §4.4).
// The daemon is only required for backward compatibility: an
// administrator can write the same text to the /proc files directly.
package monitord

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"protego/internal/accountdb"
	"protego/internal/core"
	"protego/internal/errno"
	"protego/internal/faultinject"
	"protego/internal/kernel"
	"protego/internal/trace"
	"protego/internal/vfs"
)

// Config file locations the daemon watches.
const (
	FstabPath      = "/etc/fstab"
	SudoersPath    = "/etc/sudoers"
	SudoersDir     = "/etc/sudoers.d"
	BindPath       = "/etc/bind"
	PPPOptionsPath = "/etc/ppp/options"
)

const (
	// debounce is the settle delay after a burst of file events.
	debounce = 5 * time.Millisecond

	// maxRetries is how many times a failed sync pass is retried (with
	// doubling backoff starting at retryBackoff) before the daemon gives
	// up for this round and keeps the last good policy. Transient faults
	// — a torn read racing an editor, a spurious EIO — heal on retry; a
	// persistently malformed file leaves the kernel's previous policy
	// untouched, so a bad reload can never empty a whitelist.
	maxRetries   = 2
	retryBackoff = 500 * time.Microsecond
)

// Daemon is the monitoring daemon. It runs with root privilege (it is part
// of the trusted computing base, alongside the authentication service).
type Daemon struct {
	k   *kernel.Kernel
	mod *core.Module

	mu    sync.Mutex
	syncs map[string]int
	// fragmentsSuspect latches after a failed legacy->fragments push. The
	// reverse direction (fragments -> legacy) is refused while set: a
	// partially written fragment tree must never be treated as
	// authoritative, or the rebuild would silently drop accounts from
	// /etc/passwd and /etc/shadow. A later successful push clears it.
	fragmentsSuspect bool
}

// New creates a daemon for the kernel. mod may be nil when the daemon is
// used only for account synchronization; policy syncs then fail.
func New(k *kernel.Kernel, mod *core.Module) *Daemon {
	return &Daemon{
		k:     k,
		mod:   mod,
		syncs: make(map[string]int),
	}
}

// SyncCount reports how many synchronization passes completed for target
// ("mounts", "delegation", "bind", "ppp", "accounts-legacy",
// "accounts-fragments").
func (d *Daemon) SyncCount(target string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs[target]
}

func (d *Daemon) bump(target string) {
	d.mu.Lock()
	d.syncs[target]++
	d.mu.Unlock()
}

// traced runs one sync with bounded retry. Each attempt is timed and
// emitted on the trace ring; a pass that keeps failing after maxRetries
// retries is abandoned, leaving the last good in-kernel policy in place
// (the /proc writers swap atomically, so a failed attempt never applies
// partially).
func (d *Daemon) traced(target string, fn func() error) error {
	var err error
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		start := trace.Now()
		err = fn()
		d.k.Trace.MonitordSync(target, start, err)
		if err == nil {
			d.bump(target)
			return nil
		}
		if attempt >= maxRetries {
			break
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	d.k.Auditf("monitord: sync %s failed after %d attempts, keeping last good policy: %v",
		target, maxRetries+1, err)
	return err
}

// readConfig reads a watched configuration file, routing the bytes
// through the kernel's fault injector (when armed) so tests can model
// torn reads — a half-written file caught mid-rename. Every watched file
// is text, so a NUL byte can only mean a torn or corrupt read; detecting
// it here fails the pass before any parser can quietly accept a prefix.
func (d *Daemon) readConfig(site, path string) ([]byte, error) {
	data, err := d.k.FS.ReadFile(vfs.RootCred, path)
	if err != nil {
		return nil, err
	}
	data, err = d.k.FaultInjector().CheckData(site, data)
	if err != nil {
		return nil, err
	}
	if bytes.IndexByte(data, 0) >= 0 {
		return nil, fmt.Errorf("monitord: %s: torn read (NUL in text config): %w", path, errno.EIO)
	}
	return data, nil
}

// policyFile is one legacy policy file the daemon copies into the kernel:
// its sync target, its path, the directory whose files follow its text
// (sudoers.d), the /proc/protego file that takes the text, and the fault
// site of its reads. The kernel parses the text; the daemon only reads and
// copies bytes.
type policyFile struct {
	target, path, fragDir, proc, site string
}

// policyFiles drives the policy syncs, classify, the watch loop's dispatch
// and SyncAll.
var policyFiles = []policyFile{
	{"mounts", FstabPath, "", core.ProcMounts, faultinject.SiteMonFstab},
	{"delegation", SudoersPath, SudoersDir, core.ProcDelegation, faultinject.SiteMonSudoers},
	{"bind", BindPath, "", core.ProcBind, faultinject.SiteMonBind},
	{"ppp", PPPOptionsPath, "", core.ProcPPP, faultinject.SiteMonPPP},
}

// syncPolicy copies f's text, with its fragments each after a newline,
// into f's /proc file as root (the daemon is root; the file is mode 0600
// root).
func (d *Daemon) syncPolicy(f *policyFile) error {
	return d.traced(f.target, func() error {
		data, err := d.readConfig(f.site, f.path)
		if err != nil {
			return err
		}
		if f.fragDir != "" {
			data = append(data[:len(data):len(data)], '\n')
			names, _ := d.k.FS.ReadDir(vfs.RootCred, f.fragDir) // no directory: no fragments
			for _, name := range names {
				frag, err := d.readConfig(f.site, f.fragDir+"/"+name)
				if err != nil {
					return err
				}
				data = append(append(data, frag...), '\n')
			}
		}
		ino, err := d.k.FS.Lookup(vfs.RootCred, f.proc)
		if err != nil {
			return err
		}
		_, write := d.k.FS.ProcHandlers(ino)
		if write == nil {
			return fmt.Errorf("monitord: %s is not a policy file: %w", f.proc, errno.EINVAL)
		}
		return write(vfs.RootCred, data)
	})
}

// SyncMounts copies /etc/fstab into the kernel's mount whitelist.
func (d *Daemon) SyncMounts() error { return d.sync("mounts") }

// SyncDelegation copies /etc/sudoers and /etc/sudoers.d/* into the
// kernel's delegation policy.
func (d *Daemon) SyncDelegation() error { return d.sync("delegation") }

// SyncBind copies /etc/bind into the kernel's port allocation table.
func (d *Daemon) SyncBind() error { return d.sync("bind") }

// SyncPPP copies /etc/ppp/options into the kernel's PPP policy.
func (d *Daemon) SyncPPP() error { return d.sync("ppp") }

// SyncAccountsFromFragments rebuilds the legacy shared database files from
// the per-account fragments (called when a fragment changes — e.g. a user
// ran passwd or chsh).
func (d *Daemon) SyncAccountsFromFragments() error {
	return d.traced("accounts-legacy", func() error {
		if err := d.k.FaultInjector().Check(faultinject.SiteMonAccounts); err != nil {
			return err
		}
		d.mu.Lock()
		suspect := d.fragmentsSuspect
		d.mu.Unlock()
		if suspect {
			return fmt.Errorf("monitord: fragment tree incomplete after failed push, keeping legacy files: %w", errno.EIO)
		}
		if err := accountdb.SynthesizeLegacy(d.k.FS); err != nil {
			return err
		}
		if d.mod != nil {
			d.mod.InvalidateIdentity()
		}
		return nil
	})
}

// SyncAccountsToFragments re-fragments the shared files (called when the
// legacy files change — e.g. the administrator ran vipw or added a user).
func (d *Daemon) SyncAccountsToFragments() error {
	err := d.traced("accounts-fragments", func() error {
		// The legacy passwd file feeds the fragmenting; a torn read of it
		// must abort the whole pass before any fragment is rewritten.
		if _, err := d.readConfig(faultinject.SiteMonAccounts, accountdb.PasswdFile); err != nil {
			return err
		}
		if err := accountdb.Fragment(d.k.FS); err != nil {
			return err
		}
		if d.mod != nil {
			d.mod.InvalidateIdentity()
		}
		return nil
	})
	d.mu.Lock()
	d.fragmentsSuspect = err != nil
	d.mu.Unlock()
	return err
}

// SyncAll performs every synchronization once (boot-time initialization).
// Missing optional files (/etc/bind, /etc/ppp/options, fragments) are
// skipped silently; a malformed present file is an error.
func (d *Daemon) SyncAll() error {
	for i := range policyFiles {
		f := &policyFiles[i]
		if !d.k.FS.Exists(vfs.RootCred, f.path) {
			continue
		}
		if err := d.syncPolicy(f); err != nil {
			return fmt.Errorf("monitord: sync %s: %w", f.target, err)
		}
	}
	if d.k.FS.Exists(vfs.RootCred, accountdb.PasswdFile) {
		if err := d.SyncAccountsToFragments(); err != nil {
			return fmt.Errorf("monitord: sync accounts: %w", err)
		}
	}
	return nil
}

// Start registers the /etc watch synchronously and then, on a background
// goroutine, re-synchronizes the affected policy on each change until stop
// is closed. Registering first guarantees that configuration edits made
// immediately after Start returns are observed. Events are debounced so
// editors that write temp+rename do not trigger half-parsed syncs.
func (d *Daemon) Start(stop <-chan struct{}) {
	w := d.k.FS.Watch("/etc")
	go d.loop(w, stop)
}

func (d *Daemon) loop(w *vfs.Watch, stop <-chan struct{}) {
	defer w.Close()
	pending := make(map[string]bool)
	var timer *time.Timer
	var timerC <-chan time.Time
	for {
		select {
		case ev, ok := <-w.C:
			if !ok {
				return
			}
			if target := d.classify(ev.Path); target != "" {
				pending[target] = true
				if timer == nil {
					timer = time.NewTimer(debounce)
				} else {
					timer.Reset(debounce)
				}
				timerC = timer.C
			}
		case <-timerC:
			for target := range pending {
				if err := d.sync(target); err != nil {
					d.k.Auditf("monitord: sync %s failed: %v", target, err)
				}
			}
			pending = make(map[string]bool)
			timerC = nil
		case <-stop:
			return
		}
	}
}

// classify maps a changed path to the sync target it affects.
func (d *Daemon) classify(path string) string {
	for _, f := range policyFiles {
		if path == f.path || f.fragDir != "" && vfs.IsUnder(path, f.fragDir) {
			return f.target
		}
	}
	switch {
	case vfs.IsUnder(path, accountdb.PasswdsDir),
		vfs.IsUnder(path, accountdb.ShadowsDir),
		vfs.IsUnder(path, accountdb.GroupsDir):
		return "accounts-legacy"
	case path == accountdb.PasswdFile, path == accountdb.ShadowFile, path == accountdb.GroupFile:
		return "accounts-fragments"
	default:
		return ""
	}
}

// sync runs the synchronization of target.
func (d *Daemon) sync(target string) error {
	for i := range policyFiles {
		if policyFiles[i].target == target {
			return d.syncPolicy(&policyFiles[i])
		}
	}
	switch target {
	case "accounts-legacy":
		return d.SyncAccountsFromFragments()
	case "accounts-fragments":
		return d.SyncAccountsToFragments()
	}
	return fmt.Errorf("monitord: unknown sync target %q", target)
}
