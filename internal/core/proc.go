package core

import (
	"fmt"
	"strings"

	"protego/internal/errno"
	"protego/internal/netstack"
	"protego/internal/policy"
	"protego/internal/vfs"
)

// /proc configuration paths (Figure 1: "a trusted daemon reads the
// policies from /etc/fstab and configures the Protego LSM through a file
// in /proc"). Each policy file takes the text of the legacy file it
// mirrors, and only that text: mounts takes /etc/fstab, bind /etc/bind,
// delegation /etc/sudoers and ppp /etc/ppp/options.
const (
	ProcDir        = "/proc/protego"
	ProcMounts     = ProcDir + "/mounts"
	ProcBind       = ProcDir + "/bind"
	ProcDelegation = ProcDir + "/delegation"
	ProcPPP        = ProcDir + "/ppp"
	ProcStatus     = ProcDir + "/status"
)

// procFile is one /proc/protego file with this module's handlers; a file
// with no writer is read-only.
type procFile struct {
	path  string
	read  vfs.ProcReadFunc
	write vfs.ProcWriteFunc
}

// procFiles is the one table of /proc/protego files: setupProc creates
// them, and a clone's rebindProc repoints them at its own module.
func (m *Module) procFiles() []procFile {
	return []procFile{
		{ProcMounts, m.readMounts, m.writeMounts},
		{ProcBind, m.readBind, m.writeBind},
		{ProcDelegation, m.readDelegation, m.writeDelegation},
		{ProcPPP, m.readPPP, m.writePPP},
		{ProcStatus, m.readStatus, nil},
	}
}

// setupProc creates the /proc/protego files. The policy files are
// root-owned mode 0600: only the administrator (or the trusted monitoring
// daemon) may configure policy.
func (m *Module) setupProc() error {
	if err := m.k.FS.MkdirAll(vfs.RootCred, ProcDir, 0o555, 0, 0); err != nil {
		return err
	}
	for _, f := range m.procFiles() {
		mode := vfs.Mode(0o600)
		if f.write == nil {
			mode = 0o444
		}
		if err := m.k.RegisterProcFile(f.path, mode, f.read, f.write); err != nil {
			return err
		}
	}
	return nil
}

// parsePolicy is the first half of every policy writer: only root may
// write, and the text is parsed once, through the file system's memo. A
// malformed text is EINVAL wrapping the parser's line-numbered error. The
// writer then swaps the parse in whole, so a failed write leaves the old
// policy in force.
func parsePolicy[T any](m *Module, c vfs.Cred, data []byte, parse func(*vfs.Memo, []byte) (T, error)) (T, error) {
	var p T
	if c.FSUID() != 0 {
		return p, errno.EPERM
	}
	p, err := parse(m.k.FS.Memo(), data)
	if err != nil {
		return p, fmt.Errorf("%w: %w", errno.EINVAL, err)
	}
	return p, nil
}

func (m *Module) readMounts(vfs.Cred) ([]byte, error) {
	var b strings.Builder
	for _, r := range m.MountRules() {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

// writeMounts installs the whitelist from /etc/fstab text: the first row
// of each (device, point) pair, points compared clean, when that row says
// user or users. It is the row util-linux's mount(8) decides by.
func (m *Module) writeMounts(c vfs.Cred, data []byte) error {
	entries, err := parsePolicy(m, c, data, policy.MemoFstab)
	if err != nil {
		return err
	}
	var rows []policy.FstabEntry
	for i := range entries {
		if e := &entries[i]; e.UserMountable() && policy.FindPair(entries, e.Device, e.MountPoint) == e {
			r := *e
			r.MountPoint = vfs.CleanPath(r.MountPoint, "/")
			rows = append(rows, r)
		}
	}
	m.SetMountRules(rows)
	return nil
}

func (m *Module) readBind(vfs.Cred) ([]byte, error) {
	return []byte(strings.Join(m.BindAllocations(), "\n") + "\n"), nil
}

// writeBind installs the port allocation table from /etc/bind text, each
// user name resolved to its uid; an unknown user is EINVAL.
func (m *Module) writeBind(c vfs.Cred, data []byte) error {
	entries, err := parsePolicy(m, c, data, policy.MemoBind)
	if err != nil {
		return err
	}
	table := make(map[bindKey]BindTarget, len(entries))
	for i := range entries {
		e := &entries[i]
		u, err := m.db.LookupUser(e.User)
		if errno.Is(err, errno.ENOENT) {
			return fmt.Errorf("%w: bind: unknown user %q in %q", errno.EINVAL, e.User, e.String())
		} else if err != nil {
			return err
		}
		proto := netstack.IPPROTO_TCP
		if e.Proto == "udp" {
			proto = netstack.IPPROTO_UDP
		}
		table[bindKey{proto: proto, port: e.Port}] = BindTarget{Binary: e.Binary, UID: u.UID, User: e.User}
	}
	m.mu.Lock()
	m.bindTable = table
	m.mu.Unlock()
	return nil
}

func (m *Module) readDelegation(vfs.Cred) ([]byte, error) {
	s := m.Sudoers()
	if s == nil {
		return []byte("# no delegation policy loaded\n"), nil
	}
	return []byte(s.String()), nil
}

// writeDelegation replaces the delegation policy with sudoers text (the
// paper: "an /etc/sudoers-like syntax for delegation").
func (m *Module) writeDelegation(c vfs.Cred, data []byte) error {
	s, err := parsePolicy(m, c, data, policy.MemoSudoers)
	if err == nil {
		m.SetSudoers(s)
	}
	return err
}

func (m *Module) readPPP(vfs.Cred) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var b strings.Builder
	if m.ppp != nil {
		for _, p := range m.ppp.SafeParams {
			fmt.Fprintf(&b, "safe-param %s\n", p)
		}
		if m.ppp.AllowUserRoutes {
			b.WriteString("user-routes\n")
		}
		for _, d := range m.ppp.Devices {
			fmt.Fprintf(&b, "device %s\n", d)
		}
	}
	return []byte(b.String()), nil
}

// writePPP replaces the PPP policy with /etc/ppp/options text.
func (m *Module) writePPP(c vfs.Cred, data []byte) error {
	o, err := parsePolicy(m, c, data, policy.MemoPPPOptions)
	if err == nil {
		m.SetPPP(o)
	}
	return err
}

func (m *Module) readStatus(vfs.Cred) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var b strings.Builder
	b.WriteString("protego: enabled\n")
	fmt.Fprintf(&b, "mount-whitelist-entries: %d\n", len(m.mounts))
	fmt.Fprintf(&b, "bind-allocations: %d\n", len(m.bindTable))
	rules := 0
	if m.sudoers != nil {
		rules = len(m.sudoers.Rules)
	}
	fmt.Fprintf(&b, "delegation-rules: %d\n", rules)
	fmt.Fprintf(&b, "allow-unpriv-raw: %v\n", m.allowUnprivRaw)
	st := &m.Stats
	fmt.Fprintf(&b, "stats: mount-grants=%d mount-denials=%d bind-grants=%d bind-denials=%d setuid-grants=%d setuid-defers=%d setuid-denials=%d raw-grants=%d route-grants=%d route-denials=%d\n",
		st.MountGrants.Load(), st.MountDenials.Load(), st.BindGrants.Load(), st.BindDenials.Load(),
		st.SetuidGrants.Load(), st.SetuidDefers.Load(), st.SetuidDenials.Load(),
		st.RawSockGrants.Load(), st.RouteGrants.Load(), st.RouteDenials.Load())
	return []byte(b.String()), nil
}
