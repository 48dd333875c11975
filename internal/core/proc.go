package core

import (
	"fmt"
	"strings"

	"protego/internal/errno"
	"protego/internal/policy"
	"protego/internal/vfs"
)

// /proc configuration paths (Figure 1: "a trusted daemon reads the
// policies from /etc/fstab and configures the Protego LSM through a file
// in /proc").
const (
	ProcDir        = "/proc/protego"
	ProcMounts     = ProcDir + "/mounts"
	ProcBind       = ProcDir + "/bind"
	ProcDelegation = ProcDir + "/delegation"
	ProcPPP        = ProcDir + "/ppp"
	ProcStatus     = ProcDir + "/status"
)

// setupProc creates the /proc/protego files. They are root-owned mode 0600:
// only the administrator (or the trusted monitoring daemon) may configure
// policy.
func (m *Module) setupProc() error {
	if err := m.k.FS.MkdirAll(vfs.RootCred, ProcDir, 0o555, 0, 0); err != nil {
		return err
	}
	type procFile struct {
		path  string
		read  vfs.ProcReadFunc
		write vfs.ProcWriteFunc
	}
	files := []procFile{
		{ProcMounts, m.readMounts, m.writeMounts},
		{ProcBind, m.readBind, m.writeBind},
		{ProcDelegation, m.readDelegation, m.writeDelegation},
		{ProcPPP, m.readPPP, m.writePPP},
		{ProcStatus, m.readStatus, nil},
	}
	for _, f := range files {
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

func requireRoot(c vfs.Cred) error {
	if c.FSUID() != 0 {
		return errno.EPERM
	}
	return nil
}

func (m *Module) readMounts(vfs.Cred) ([]byte, error) {
	var b strings.Builder
	for _, r := range m.MountRules() {
		b.WriteString(ProcMountRow(&r))
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

// writeMounts accepts the grammar:
//
//	add <device> <mountpoint> <fstype> <options|-> <user|users>
//	del <device> <mountpoint>
//	clear
//
// The batch is staged against a copy of the whitelist and swapped in only
// if every command parses: a failure halfway through the usual
// "clear\nadd…" reload must never leave the kernel with a
// partially-applied (possibly empty) whitelist.
func (m *Module) writeMounts(c vfs.Cred, data []byte) error {
	if err := requireRoot(c); err != nil {
		return err
	}
	cmds, err := policy.ParseProcCommands(data)
	if err != nil {
		return errno.EINVAL
	}
	staged := m.MountRules()
	for _, cmd := range cmds {
		switch cmd.Verb {
		case "add":
			row, err := parseMountRow(cmd.Args)
			if err != nil {
				return err
			}
			staged = append(staged, row)
		case "del":
			if len(cmd.Args) != 2 {
				return errno.EINVAL
			}
			dev, point := cmd.Args[0], vfs.CleanPath(cmd.Args[1], "/")
			kept := staged[:0]
			for _, r := range staged {
				if !(r.Device == dev && r.MountPoint == point) {
					kept = append(kept, r)
				}
			}
			staged = kept
		case "clear":
			staged = staged[:0]
		}
	}
	m.SetMountRules(staged)
	return nil
}

func (m *Module) readBind(vfs.Cred) ([]byte, error) {
	return []byte(strings.Join(m.BindAllocations(), "\n") + "\n"), nil
}

// writeBind accepts:
//
//	add <port> <tcp|udp> <binary> <uid>
//	del <port> <tcp|udp>
//	clear
//
// Like writeMounts, the batch is staged against a copy of the allocation
// table and swapped in only when every command parses.
func (m *Module) writeBind(c vfs.Cred, data []byte) error {
	if err := requireRoot(c); err != nil {
		return err
	}
	cmds, err := policy.ParseProcCommands(data)
	if err != nil {
		return errno.EINVAL
	}
	m.mu.RLock()
	staged := make(map[bindKey]BindTarget, len(m.bindTable))
	for k, v := range m.bindTable {
		staged[k] = v
	}
	m.mu.RUnlock()
	for _, cmd := range cmds {
		switch cmd.Verb {
		case "add":
			key, target, err := parseBindArgs(cmd.Args)
			if err != nil {
				return err
			}
			staged[key] = target
		case "del":
			if len(cmd.Args) != 2 {
				return errno.EINVAL
			}
			key, _, err := parseBindArgs(append(cmd.Args, "/", "0"))
			if err != nil {
				return err
			}
			delete(staged, key)
		case "clear":
			staged = make(map[bindKey]BindTarget)
		}
	}
	m.mu.Lock()
	m.bindTable = staged
	m.mu.Unlock()
	return nil
}

func (m *Module) readDelegation(vfs.Cred) ([]byte, error) {
	s := m.Sudoers()
	if s == nil {
		return []byte("# no delegation policy loaded\n"), nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %d rules, timeout %s\n", len(s.Rules), s.TimestampTimeout)
	for i := range s.Rules {
		r := &s.Rules[i]
		tag := ""
		if r.NoPasswd {
			tag = "NOPASSWD: "
		}
		fmt.Fprintf(&b, "%s %s = (%s) %s%s\n", r.User, r.Host,
			strings.Join(r.RunAs, ","), tag, strings.Join(r.Commands, ", "))
	}
	return []byte(b.String()), nil
}

// writeDelegation replaces the delegation policy with the sudoers-format
// text written to the file (the paper: "an /etc/sudoers-like syntax for
// delegation").
func (m *Module) writeDelegation(c vfs.Cred, data []byte) error {
	if err := requireRoot(c); err != nil {
		return err
	}
	s, err := policy.MemoSudoers(m.k.FS.Memo(), data)
	if err != nil {
		return errno.EINVAL
	}
	m.SetSudoers(s)
	return nil
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

// writePPP replaces the PPP policy with /etc/ppp/options-format text.
func (m *Module) writePPP(c vfs.Cred, data []byte) error {
	if err := requireRoot(c); err != nil {
		return err
	}
	o, err := policy.MemoPPPOptions(m.k.FS.Memo(), data)
	if err != nil {
		return errno.EINVAL
	}
	m.SetPPP(o)
	return nil
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
