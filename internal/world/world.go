// Package world builds populated machine images for the two systems under
// study: baseline "Linux with AppArmor" (setuid bits on the studied
// binaries, policies enforced in userspace) and Protego (bits cleared,
// policies enforced by the kernel LSM, trusted monitoring daemon and
// authentication service installed). Examples, tests, the exploit harness,
// and every benchmark build their machines here so both configurations
// stay strictly comparable.
package world

import (
	"bytes"
	"fmt"

	"protego/internal/accountdb"
	"protego/internal/apparmor"
	"protego/internal/authsvc"
	"protego/internal/caps"
	"protego/internal/core"
	"protego/internal/errno"
	"protego/internal/faultinject"
	"protego/internal/kernel"
	"protego/internal/monitord"
	"protego/internal/netstack"
	"protego/internal/seccomp"
	"protego/internal/userspace"
	"protego/internal/vfs"
)

// Test-user passwords (documented so examples and tests can authenticate).
const (
	RootPassword     = "rootpw"
	AlicePassword    = "alicepw"
	BobPassword      = "bobpw"
	CharliePassword  = "charliepw"
	OpsGroupPassword = "opspw"
)

// Well-known uids/gids of the image.
const (
	UIDRoot    = 0
	UIDExim    = 101
	UIDWWWData = 33
	UIDAlice   = 1000
	UIDBob     = 1001
	UIDCharlie = 1002

	GIDRoot   = 0
	GIDWheel  = 10
	GIDOps    = 20
	GIDWWW    = 33
	GIDShadow = 42
	GIDUsers  = 100
	GIDExim   = 101
)

// Options configures Build.
type Options struct {
	// Mode selects baseline Linux or Protego.
	Mode kernel.Mode
}

// Machine is a booted image.
type Machine struct {
	K        *kernel.Kernel
	AppArmor *apparmor.Module
	Protego  *core.Module    // nil on the baseline
	Seccomp  *seccomp.Module // nil unless InstallSeccomp ran
	Monitor  *monitord.Daemon
	Auth     *authsvc.Service
	DB       *accountdb.DB
	Init     *kernel.Task

	// image is the snapshot this machine was cloned from, nil for a
	// Build.
	image *Snapshot
	// fp is what Fingerprint keeps between calls.
	fp fingerprintCache
}

// Build constructs a machine image.
func Build(opts Options) (*Machine, error) {
	k := kernel.New(opts.Mode)
	m := &Machine{K: k, DB: accountdb.NewDB(k.FS)}

	if err := m.layoutFilesystem(); err != nil {
		return nil, fmt.Errorf("world: filesystem: %w", err)
	}
	if err := m.writeEtc(); err != nil {
		return nil, fmt.Errorf("world: /etc: %w", err)
	}
	if err := m.makeDevices(); err != nil {
		return nil, fmt.Errorf("world: devices: %w", err)
	}
	m.registerDeviceHandlers()
	userspace.RegisterAll(k)
	if err := m.installBinaries(); err != nil {
		return nil, fmt.Errorf("world: binaries: %w", err)
	}

	// The trace interface is installed in both configurations so the
	// observability surface itself never skews a mode comparison.
	if err := k.InstallTraceProc(); err != nil {
		return nil, fmt.Errorf("world: trace proc: %w", err)
	}

	// AppArmor is present in both configurations (the baseline is
	// "Linux with AppArmor"; Protego extends it) with no profiles loaded,
	// the paper's measurement baseline.
	m.AppArmor = apparmor.New()
	k.LSM.Register(m.AppArmor)

	m.Auth = authsvc.New(m.DB)
	m.Auth.SetTracer(k.Trace)
	if opts.Mode == kernel.ModeProtego {
		m.Protego = core.New(k, m.DB, m.Auth)
		if err := m.Protego.Install(); err != nil {
			return nil, fmt.Errorf("world: protego: %w", err)
		}
		m.Protego.AllowFileReaders(userspace.HostKeyPath, userspace.BinSSHKeysign)
		m.Monitor = monitord.New(k, m.Protego)
		if err := m.Monitor.SyncAll(); err != nil {
			return nil, fmt.Errorf("world: initial sync: %w", err)
		}
	}

	m.Init = k.InitTask()
	return m, nil
}

// InstallSeccomp registers a module enforcing the syscall allowlists in
// set — recording violations instead of denying them when audit is set,
// the difffuzz invariant configuration — and so arms the kernel's syscall
// gate: from now on every syscall entry is checked against the issuing
// binary's profile. Call it after every other LSM module has joined: the
// module's ExecCheck swaps the task's profile for the new image, and every
// module with veto power must have had its chance to short-circuit the
// exec before that swap. The set must not be mutated afterwards; clones
// share it by reference.
func (m *Machine) InstallSeccomp(set *seccomp.ProfileSet, audit bool) {
	m.Seccomp = seccomp.NewModule(set, audit)
	m.K.LSM.Register(m.Seccomp)
}

// SetFaultInjector arms a fault-injection plan machine-wide: the kernel
// (which fans it out to the VFS and the netstack) and the authentication
// service. Passing nil disarms injection.
func (m *Machine) SetFaultInjector(in *faultinject.Injector) {
	m.K.SetFaultInjector(in)
	m.Auth.SetFaultInjector(in)
}

// BuildProtego builds the Protego image.
func BuildProtego() (*Machine, error) { return Build(Options{Mode: kernel.ModeProtego}) }

func (m *Machine) layoutFilesystem() error {
	fs := m.K.FS
	dirs := []struct {
		path string
		mode vfs.Mode
		uid  int
		gid  int
	}{
		{"/bin", 0o755, 0, 0},
		{"/sbin", 0o755, 0, 0},
		{"/usr", 0o755, 0, 0},
		{"/usr/bin", 0o755, 0, 0},
		{"/usr/sbin", 0o755, 0, 0},
		{"/usr/lib", 0o755, 0, 0},
		{"/usr/lib/chromium", 0o755, 0, 0},
		{"/etc", 0o755, 0, 0},
		{"/etc/sudoers.d", 0o755, 0, 0},
		{"/etc/ppp", 0o755, 0, 0},
		{"/etc/ssh", 0o755, 0, 0},
		{"/dev", 0o755, 0, 0},
		{"/proc", 0o555, 0, 0},
		{"/sys", 0o555, 0, 0},
		{"/sys/block", 0o555, 0, 0},
		{"/sys/block/dm-0", 0o555, 0, 0},
		{"/sys/block/dm-0/dm", 0o555, 0, 0},
		{"/tmp", 0o777 | vfs.ModeSticky, 0, 0},
		{"/home", 0o755, 0, 0},
		{"/home/alice", 0o700, UIDAlice, GIDUsers},
		{"/home/bob", 0o700, UIDBob, GIDUsers},
		{"/home/charlie", 0o700, UIDCharlie, GIDUsers},
		{"/root", 0o700, 0, 0},
		{"/var", 0o755, 0, 0},
		{"/var/run", 0o755, 0, 0},
		{"/var/run/sudo", 0o700, 0, 0},
		{"/var/mail", 0o775, UIDExim, GIDExim},
		{"/var/spool", 0o755, 0, 0},
		{"/var/spool/lpd", 0o755, 0, 0},
		{"/var/www", 0o755, 0, 0},
		{"/var/log", 0o755, 0, 0},
		{"/cdrom", 0o755, 0, 0},
		{"/media", 0o755, 0, 0},
		{"/media/usb", 0o777, 0, 0},
		{"/mnt", 0o755, 0, 0},
		{"/mnt/backup", 0o755, 0, 0},
	}
	for _, d := range dirs {
		if _, err := fs.Mkdir(vfs.RootCred, d.path, d.mode, d.uid, d.gid); err != nil && err != errno.EEXIST {
			return fmt.Errorf("%s: %w", d.path, err)
		}
	}
	// World-writable print queue (the spooler daemon is out of scope).
	if err := fs.WriteFile(vfs.RootCred, "/var/spool/lpd/queue", nil, 0o666, 0, 0); err != nil {
		return err
	}
	return fs.WriteFile(vfs.RootCred, "/var/www/index.html",
		[]byte("<html><body>It works (protego)</body></html>"), 0o644, 0, 0)
}

func hash(user, password string) string {
	return accountdb.HashPassword(password, "pg"+user)
}

func (m *Machine) writeEtc() error {
	fs := m.K.FS
	users := []accountdb.User{
		{Name: "root", UID: UIDRoot, GID: GIDRoot, Gecos: "root", Home: "/root", Shell: userspace.BinSh},
		{Name: "Debian-exim", UID: UIDExim, GID: GIDExim, Gecos: "mail", Home: "/var/mail", Shell: userspace.BinSh},
		{Name: "www-data", UID: UIDWWWData, GID: GIDWWW, Gecos: "web", Home: "/var/www", Shell: userspace.BinSh},
		{Name: "alice", UID: UIDAlice, GID: GIDUsers, Gecos: "Alice", Home: "/home/alice", Shell: userspace.BinSh},
		{Name: "bob", UID: UIDBob, GID: GIDUsers, Gecos: "Bob", Home: "/home/bob", Shell: userspace.BinSh},
		{Name: "charlie", UID: UIDCharlie, GID: GIDUsers, Gecos: "Charlie", Home: "/home/charlie", Shell: userspace.BinSh},
	}
	shadow := []accountdb.ShadowEntry{
		{Name: "root", Hash: hash("root", RootPassword)},
		{Name: "Debian-exim", Hash: "!"},
		{Name: "www-data", Hash: "!"},
		{Name: "alice", Hash: hash("alice", AlicePassword)},
		{Name: "bob", Hash: hash("bob", BobPassword)},
		{Name: "charlie", Hash: hash("charlie", CharliePassword)},
	}
	groups := []accountdb.Group{
		{Name: "root", GID: GIDRoot},
		{Name: "wheel", GID: GIDWheel, Members: []string{"alice", "charlie"}},
		{Name: "ops", GID: GIDOps, Password: accountdb.HashPassword(OpsGroupPassword, "pggops"), Members: []string{"alice"}},
		{Name: "www-data", GID: GIDWWW},
		{Name: "shadow", GID: GIDShadow},
		{Name: "users", GID: GIDUsers, Members: []string{"alice", "bob", "charlie"}},
		{Name: "Debian-exim", GID: GIDExim},
	}
	files := []struct {
		path     string
		content  string
		mode     vfs.Mode
		uid, gid int
	}{
		{accountdb.PasswdFile, accountdb.FormatPasswd(users), 0o644, 0, 0},
		{accountdb.ShadowFile, accountdb.FormatShadow(shadow), 0o600, 0, GIDShadow},
		{accountdb.GroupFile, accountdb.FormatGroup(groups), 0o644, 0, 0},
		{"/etc/shells", "/bin/sh\n/bin/bash\n/bin/zsh\n", 0o644, 0, 0},
		{"/etc/fstab", fstabContent, 0o644, 0, 0},
		{"/etc/sudoers", sudoersContent, 0o440, 0, 0},
		{"/etc/sudoers.d/printing", "bob ALL = (alice) /usr/bin/lpr\n", 0o440, 0, 0},
		{"/etc/bind", bindContent, 0o644, 0, 0},
		{"/etc/ppp/options", pppOptionsContent, 0o644, 0, 0},
		{userspace.HostKeyPath, "HOSTKEY-SECRET-MATERIAL", 0o600, 0, 0},
		{"/sys/block/dm-0/dm/slaves", "/dev/sda2\n", 0o444, 0, 0},
		{"/etc/motd", "Welcome to the Protego reproduction machine.\n", 0o644, 0, 0},
	}
	for _, f := range files {
		if err := fs.WriteFile(vfs.RootCred, f.path, []byte(f.content), f.mode, f.uid, f.gid); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	return nil
}

const fstabContent = `# <device> <mountpoint> <fstype> <options> <dump> <pass>
/dev/sda1  /            ext4     defaults          0 1
/dev/cdrom /cdrom       iso9660  ro,user,noauto    0 0
/dev/sdb1  /media/usb   vfat     rw,users,noauto   0 0
/dev/sdc1  /mnt/backup  ext4     rw                0 0
`

const sudoersContent = `Defaults env_keep = "TERM LANG HOME PATH"
Defaults timestamp_timeout = 5
Cmnd_Alias PRINT = /usr/bin/lpr
root    ALL = (ALL) ALL
alice   ALL = (root) ALL
%wheel  ALL = (root) NOPASSWD: /bin/ls
bob     ALL = (root) /usr/lib/sudoedit-helper
`

const bindContent = `# port proto binary user
25 tcp /usr/sbin/exim4 Debian-exim
80 tcp /usr/sbin/httpd www-data
`

const pppOptionsContent = `# pppd policy
device /dev/ppp
user-routes
safe-param vj-max-slots
asyncmap 0
`

func (m *Machine) makeDevices() error {
	fs := m.K.FS
	pppMode := vfs.Mode(0o600)
	if m.K.Mode == kernel.ModeProtego {
		// Protego relaxes /dev/ppp permissions, replacing a capability
		// check with device file permissions (§4.1.2).
		pppMode = 0o666
	}
	devices := []struct {
		path         string
		typ          vfs.DeviceType
		major, minor int
		mode         vfs.Mode
	}{
		{"/dev/null", vfs.CharDevice, 1, 3, 0o666},
		{"/dev/cdrom", vfs.BlockDevice, 11, 0, 0o660},
		{"/dev/sdb1", vfs.BlockDevice, 8, 17, 0o660},
		{"/dev/sdc1", vfs.BlockDevice, 8, 33, 0o660},
		{"/dev/ppp", vfs.CharDevice, 108, 0, pppMode},
		{"/dev/dm-0", vfs.BlockDevice, 254, 0, 0o660},
		{"/dev/dri0", vfs.CharDevice, 226, 0, 0o666},
	}
	for _, d := range devices {
		if _, err := fs.Mknod(vfs.RootCred, d.path, d.typ, d.major, d.minor, d.mode, 0, 0); err != nil {
			return fmt.Errorf("%s: %w", d.path, err)
		}
	}
	// A ppp0 modem interface for pppd to attach.
	m.K.Net.AddIface(&netstack.Iface{Name: "ppp0", Modem: true})
	return nil
}

func (m *Machine) registerDeviceHandlers() {
	m.K.RegisterDevices(map[string]kernel.IoctlHandler{
		userspace.PppDevice:   pppIoctl,
		"/dev/dm-0":           dmcryptIoctl,
		userspace.VideoDevice: videoIoctl,
	})
}

// pppIoctl serves /dev/ppp: modem attach/detach/session parameters. The
// interface state it changes is the netstack's, written under its lock.
func pppIoctl(t *kernel.Task, cmd uint32, arg any, granted bool) error {
	net := t.Kernel().Net
	switch cmd {
	case kernel.PPPIOCATTACH:
		name, ok := arg.(string)
		if !ok {
			return errno.EINVAL
		}
		if iface := net.Iface(name); iface == nil || !iface.Modem {
			return errno.ENODEV
		}
		if !granted && !t.Capable(caps.CAP_NET_ADMIN) {
			return errno.EPERM
		}
		return net.AttachModem(name, t.UID())
	case kernel.PPPIOCDETACH:
		name, ok := arg.(string)
		if !ok {
			return errno.EINVAL
		}
		return net.DetachModem(name, t.UID(), t.Capable(caps.CAP_NET_ADMIN))
	case kernel.PPPIOCSPARAM:
		kv, ok := arg.([2]string)
		if !ok {
			return errno.EINVAL
		}
		if !granted && !t.Capable(caps.CAP_NET_ADMIN) {
			return errno.EPERM
		}
		net.SetModemParam(t.UID(), kv[0], kv[1])
		return nil
	default:
		return errno.ENOTTY
	}
}

// dmcryptIoctl serves /dev/dm-0: the dmcrypt metadata ioctl discloses
// the key, so it requires CAP_SYS_ADMIN and Protego never grants it.
func dmcryptIoctl(t *kernel.Task, cmd uint32, arg any, granted bool) error {
	if cmd != kernel.DMGETINFO {
		return errno.ENOTTY
	}
	if !granted && !t.Capable(caps.CAP_SYS_ADMIN) {
		return errno.EPERM
	}
	info, ok := arg.(*userspace.DMInfo)
	if !ok {
		return errno.EINVAL
	}
	info.PhysicalDevice = "/dev/sda2"
	info.Key = "aes-xts-plain64:deadbeefcafef00d"
	return nil
}

// videoIoctl serves /dev/dri0, video mode control: the baseline demands
// CAP_SYS_ADMIN (and friends), Protego grants it because KMS made the
// kernel own the context switch.
func videoIoctl(t *kernel.Task, cmd uint32, arg any, granted bool) error {
	if cmd != kernel.VIDIOCSMODE {
		return errno.ENOTTY
	}
	if !granted && !(t.Capable(caps.CAP_SYS_ADMIN) && t.Capable(caps.CAP_SYS_RAWIO) &&
		t.Capable(caps.CAP_CHOWN) && t.Capable(caps.CAP_DAC_OVERRIDE)) {
		return errno.EPERM
	}
	return nil
}

// setuidBinaries are the studied binaries that carry the setuid bit on the
// baseline; on Protego the bit is simply absent (Table 1: "Percentage of
// deployed systems that can eliminate the setuid bit").
var setuidBinaries = map[string]bool{
	userspace.BinMount: true, userspace.BinUmount: true, userspace.BinFusermount: true,
	userspace.BinPing: true, userspace.BinTraceroute: true, userspace.BinArping: true,
	userspace.BinMtr: true, userspace.BinSudo: true, userspace.BinSudoedit: true,
	userspace.BinSu: true, userspace.BinNewgrp: true, userspace.BinGpasswd: true,
	userspace.BinPasswd: true, userspace.BinChsh: true, userspace.BinChfn: true,
	userspace.BinPppd: true, userspace.BinExim: true, userspace.BinDmcrypt: true,
	userspace.BinSSHKeysign: true, userspace.BinXserver: true, userspace.BinHttpd: true,
	// The one §4.6 concession: on the baseline's pre-3.8 kernel the
	// sandbox helper must be setuid to call unshare(2); on Protego the
	// kernel permits unprivileged user+net namespaces and the bit goes.
	userspace.BinChromiumSandbox: true,
	userspace.BinEject:           true,
	userspace.BinFping:           true,
	userspace.BinTracepath:       true,
}

func (m *Machine) installBinaries() error {
	fs := m.K.FS
	all := []string{
		userspace.BinMount, userspace.BinUmount, userspace.BinFusermount,
		userspace.BinPing, userspace.BinTraceroute, userspace.BinArping, userspace.BinMtr,
		userspace.BinSudo, userspace.BinSudoedit, userspace.BinSudoeditHelper, userspace.BinSu,
		userspace.BinNewgrp, userspace.BinGpasswd, userspace.BinPasswd, userspace.BinChsh,
		userspace.BinChfn, userspace.BinVipw, userspace.BinLogin, userspace.BinPppd,
		userspace.BinExim, userspace.BinDmcrypt, userspace.BinSSHKeysign, userspace.BinXserver,
		userspace.BinSh, userspace.BinID, userspace.BinLs, userspace.BinLpr,
		userspace.BinIptables, userspace.BinHttpd, userspace.BinChromiumSandbox,
		userspace.BinEject, userspace.BinFping, userspace.BinTracepath,
	}
	for _, path := range all {
		mode := vfs.Mode(0o755)
		if m.K.Mode == kernel.ModeLinux && setuidBinaries[path] {
			mode = 0o4755
		}
		if err := fs.WriteFile(vfs.RootCred, path, []byte("#!ELF "+path), mode, 0, 0); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := fs.Chmod(vfs.RootCred, path, mode); err != nil {
			return err
		}
	}
	return nil
}

// Session creates a logged-in task for the named user (fork of init with
// the user's credentials, groups, home cwd, and a fresh terminal).
func (m *Machine) Session(username string) (*kernel.Task, error) {
	u, err := m.DB.LookupUser(username)
	if err != nil {
		return nil, fmt.Errorf("world: no user %q", username)
	}
	gids, _ := m.DB.GroupIDsOf(username)
	t := m.K.Fork(m.Init)
	creds := kernel.UserCreds(u.UID, u.GID, gids...)
	if u.UID == 0 {
		creds = kernel.RootCreds()
	}
	t.SetUserCreds(creds)
	_ = m.K.Chdir(t, u.Home)
	t.Stdout = &bytes.Buffer{}
	t.Stderr = &bytes.Buffer{}
	t.Setenv("HOME", u.Home)
	t.Setenv("USER", u.Name)
	return t, nil
}

// Run spawns argv[0] in a child of session with fresh output buffers; the
// asker answers password prompts (nil means "no terminal").
func (m *Machine) Run(session *kernel.Task, argv []string, asker func(string) string) (int, string, string, error) {
	res, err := m.K.Spawn(session, argv[0], argv, nil, kernel.SpawnOpts{Capture: true, Asker: asker})
	return res.Code, res.Stdout, res.Stderr, err
}

// AnswerWith returns an asker that always answers with password.
func AnswerWith(password string) func(string) string {
	return func(string) string { return password }
}
