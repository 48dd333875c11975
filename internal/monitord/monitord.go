// Package monitord implements the trusted monitoring daemon of the Protego
// design (Table 2: 400 lines of Python in the paper, built on inotify).
// It watches the legacy, policy-relevant configuration files — /etc/fstab,
// /etc/sudoers (+/etc/sudoers.d), /etc/bind, /etc/ppp/options — and pushes
// their parsed contents into the kernel through the /proc/protego files,
// exactly the flow of Figure 1. It also keeps the fragmented per-account
// credential files and the legacy shared databases synchronized in both
// directions for backward compatibility (§2, §4.4). The daemon is only
// required for backward compatibility: an administrator can write the
// /proc files directly.
package monitord

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"protego/internal/accountdb"
	"protego/internal/core"
	"protego/internal/errno"
	"protego/internal/faultinject"
	"protego/internal/kernel"
	"protego/internal/policy"
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
	db  *accountdb.DB
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
func New(k *kernel.Kernel, db *accountdb.DB, mod *core.Module) *Daemon {
	return &Daemon{
		k:     k,
		db:    db,
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

// traced runs one reparse/push cycle with bounded retry. Each attempt is
// timed and emitted on the trace ring; a pass that keeps failing after
// maxRetries retries is abandoned, leaving the last good in-kernel policy
// in place (the /proc writers swap atomically, so a failed attempt never
// applies partially).
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

// writeProc writes data to a /proc policy file with root credentials (the
// daemon is root; the file is mode 0600 root).
func (d *Daemon) writeProc(path string, data string) error {
	ino, err := d.k.FS.Lookup(vfs.RootCred, path)
	if err != nil {
		return err
	}
	if ino.WriteFn == nil {
		return fmt.Errorf("monitord: %s is not a policy file: %w", path, errno.EINVAL)
	}
	return ino.WriteFn(vfs.RootCred, []byte(data))
}

// SyncMounts translates the user entries of /etc/fstab into the kernel's
// mount whitelist.
func (d *Daemon) SyncMounts() error { return d.traced("mounts", d.syncMounts) }

func (d *Daemon) syncMounts() error {
	data, err := d.readConfig(faultinject.SiteMonFstab, FstabPath)
	if err != nil {
		return err
	}
	entries, err := policy.MemoFstab(d.k.FS.Memo(), data)
	if err != nil {
		return fmt.Errorf("monitord: fstab: %w", err)
	}
	var b strings.Builder
	b.WriteString("clear\n")
	for i := range entries {
		// The first row of a (device, point) pair decides for it, as the
		// setuid mount(8) reads fstab; a later row is never pushed.
		if e := &entries[i]; e.UserMountable() && policy.FindPair(entries, e.Device, e.MountPoint) == e {
			b.WriteString("add ")
			b.WriteString(core.ProcMountRow(e))
			b.WriteByte('\n')
		}
	}
	return d.writeProc(core.ProcMounts, b.String())
}

// SyncDelegation concatenates /etc/sudoers and /etc/sudoers.d/* and pushes
// the result to the kernel's delegation policy.
func (d *Daemon) SyncDelegation() error { return d.traced("delegation", d.syncDelegation) }

func (d *Daemon) syncDelegation() error {
	var b strings.Builder
	data, err := d.readConfig(faultinject.SiteMonSudoers, SudoersPath)
	if err != nil {
		return err
	}
	b.Write(data)
	b.WriteByte('\n')
	if names, err := d.k.FS.ReadDir(vfs.RootCred, SudoersDir); err == nil {
		for _, name := range names {
			frag, err := d.readConfig(faultinject.SiteMonSudoers, SudoersDir+"/"+name)
			if err != nil {
				return err
			}
			b.Write(frag)
			b.WriteByte('\n')
		}
	}
	return d.writeProc(core.ProcDelegation, b.String())
}

// SyncBind pushes /etc/bind (usernames resolved to uids) into the kernel's
// port allocation table.
func (d *Daemon) SyncBind() error { return d.traced("bind", d.syncBind) }

func (d *Daemon) syncBind() error {
	data, err := d.readConfig(faultinject.SiteMonBind, BindPath)
	if err != nil {
		return err
	}
	entries, err := policy.MemoBind(d.k.FS.Memo(), data)
	if err != nil {
		return fmt.Errorf("monitord: bind: %w", err)
	}
	var b strings.Builder
	b.WriteString("clear\n")
	for i := range entries {
		e := &entries[i]
		u, err := d.db.LookupUser(e.User)
		if err != nil {
			return fmt.Errorf("monitord: bind: unknown user %q", e.User)
		}
		fmt.Fprintf(&b, "add %d %s %s %d\n", e.Port, e.Proto, e.Binary, u.UID)
	}
	return d.writeProc(core.ProcBind, b.String())
}

// SyncPPP pushes /etc/ppp/options into the kernel's PPP policy.
func (d *Daemon) SyncPPP() error { return d.traced("ppp", d.syncPPP) }

func (d *Daemon) syncPPP() error {
	data, err := d.readConfig(faultinject.SiteMonPPP, PPPOptionsPath)
	if err != nil {
		return err
	}
	return d.writeProc(core.ProcPPP, string(data))
}

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
	type step struct {
		name    string
		fn      func() error
		present func() bool
	}
	exists := func(path string) func() bool {
		return func() bool { return d.k.FS.Exists(vfs.RootCred, path) }
	}
	steps := []step{
		{"mounts", d.SyncMounts, exists(FstabPath)},
		{"delegation", d.SyncDelegation, exists(SudoersPath)},
		{"bind", d.SyncBind, exists(BindPath)},
		{"ppp", d.SyncPPP, exists(PPPOptionsPath)},
		{"accounts", d.SyncAccountsToFragments, exists(accountdb.PasswdFile)},
	}
	for _, s := range steps {
		if !s.present() {
			continue
		}
		if err := s.fn(); err != nil {
			return fmt.Errorf("monitord: sync %s: %w", s.name, err)
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
				d.dispatch(target)
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
	switch {
	case path == FstabPath:
		return "mounts"
	case path == SudoersPath || vfs.IsUnder(path, SudoersDir):
		return "delegation"
	case path == BindPath:
		return "bind"
	case path == PPPOptionsPath:
		return "ppp"
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

func (d *Daemon) dispatch(target string) {
	var err error
	switch target {
	case "mounts":
		err = d.SyncMounts()
	case "delegation":
		err = d.SyncDelegation()
	case "bind":
		err = d.SyncBind()
	case "ppp":
		err = d.SyncPPP()
	case "accounts-legacy":
		err = d.SyncAccountsFromFragments()
	case "accounts-fragments":
		err = d.SyncAccountsToFragments()
	}
	if err != nil {
		d.k.Auditf("monitord: sync %s failed: %v", target, err)
	}
}
