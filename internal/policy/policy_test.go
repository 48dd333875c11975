package policy

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// --- fstab ---

func TestParseFstabBasic(t *testing.T) {
	entries, err := ParseFstab(`
# comment
/dev/sda1  /            ext4     defaults          0 1
/dev/cdrom /cdrom       iso9660  ro,user,noauto    0 0

/dev/sdb1  /media/usb   vfat     rw,users          0 2
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	rootfs := entries[0]
	if rootfs.Device != "/dev/sda1" || rootfs.MountPoint != "/" || rootfs.FSType != "ext4" {
		t.Fatalf("root entry: %+v", rootfs)
	}
	if len(rootfs.Options) != 0 {
		t.Fatalf("'defaults' should yield no options: %v", rootfs.Options)
	}
	if rootfs.Pass != 1 {
		t.Fatalf("pass = %d", rootfs.Pass)
	}
	if rootfs.UserMountable() {
		t.Fatal("root fs should not be user-mountable")
	}
	cdrom := entries[1]
	if !cdrom.UserMountable() || cdrom.HasOption("users") {
		t.Fatalf("cdrom options: %+v", cdrom)
	}
	if !cdrom.HasOption("ro") {
		t.Fatal("cdrom should be ro")
	}
	usb := entries[2]
	if !usb.UserMountable() || !usb.HasOption("users") {
		t.Fatalf("usb options: %+v", usb)
	}
	if usb.Dump != 0 || usb.Pass != 2 {
		t.Fatalf("usb dump/pass: %+v", usb)
	}
}

func TestParseFstabErrors(t *testing.T) {
	cases := []string{
		"/dev/sda1 / ext4",            // too few fields
		"/dev/sda1 / ext4 defaults x", // bad dump
		"/dev/sda1 / ext4 rw 0 x",     // bad pass
	}
	for _, in := range cases {
		if _, err := ParseFstab(in); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestFstabRoundTrip(t *testing.T) {
	e := FstabEntry{Device: "/dev/cdrom", MountPoint: "/cdrom", FSType: "iso9660",
		Options: []string{"ro", "user"}, Pass: 2}
	parsed, err := ParseFstab(e.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 || parsed[0].Device != e.Device || !parsed[0].UserMountable() || parsed[0].Pass != 2 {
		t.Fatalf("round trip: %+v", parsed)
	}
}

// TestUserMountDecision is the user-mount rule both images enforce, row
// by row: which requests a user may make, what the mount gets, which
// mounts the rule could have made, and who may unmount.
func TestUserMountDecision(t *testing.T) {
	entries, err := ParseFstab(`
/dev/sda1  /           ext4    defaults              0 1
/dev/cdrom /cdrom      iso9660 ro,user,noauto        0 0
/dev/sdb1  /media/usb  vfat    rw,users,noauto,uid=7 0 0
/dev/sdd1  /mnt/any    auto    user                  0 0
/dev/cdrom /cdrom      ext4    suid,users            0 0
`)
	if err != nil {
		t.Fatal(err)
	}
	root, cdrom, usb, anyfs := &entries[0], &entries[1], &entries[2], &entries[3]
	if FindPair(entries, "/dev/cdrom", "/cdrom/") != cdrom || FindPair(entries, "/dev/cdrom", "/mnt") != nil {
		t.Fatal("FindPair must return the first row of the pair, compared as clean paths")
	}
	for _, c := range []struct {
		name   string
		row    *FstabEntry
		fstype string
		opts   []string
		ok     bool
		// what the mount gets
		mountType string
		mountOpts []string
	}{
		{"row as is", cdrom, "iso9660", nil, true, "iso9660", []string{"ro", "user", "noauto"}},
		{"probed fstype", cdrom, "auto", nil, true, "iso9660", []string{"ro", "user", "noauto"}},
		{"empty fstype", cdrom, "", nil, true, "iso9660", []string{"ro", "user", "noauto"}},
		{"safe options keep ro", cdrom, "iso9660", []string{"sync", "nosuid"}, true,
			"iso9660", []string{"ro", "user", "noauto", "sync", "nosuid"}},
		{"row's option repeated", usb, "vfat", []string{"uid=7", "rw"}, true,
			"vfat", []string{"rw", "users", "noauto", "uid=7"}},
		{"auto row takes the request's type", anyfs, "ext4", []string{"ro"}, true, "ext4", []string{"user", "ro"}},
		{"rw is not safe", cdrom, "iso9660", []string{"rw"}, false, "", nil},
		{"suid is not safe", cdrom, "iso9660", []string{"suid"}, false, "", nil},
		{"another row's option", cdrom, "iso9660", []string{"uid=7"}, false, "", nil},
		{"wrong fstype", cdrom, "ext4", nil, false, "", nil},
		{"not a user row", root, "ext4", nil, false, "", nil},
	} {
		if got := c.row.PermitsUserMount(c.fstype, c.opts); got != c.ok {
			t.Errorf("%s: PermitsUserMount = %v, want %v", c.name, got, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		typ, opts := c.row.MountWith(c.fstype, c.opts)
		if typ != c.mountType || !slices.Equal(opts, c.mountOpts) {
			t.Errorf("%s: MountWith = %s %v, want %s %v", c.name, typ, opts, c.mountType, c.mountOpts)
		}
		if !c.row.Yields(typ, opts) {
			t.Errorf("%s: Yields(%s %v) = false for what MountWith made", c.name, typ, opts)
		}
		// The caller owns the slice: sorting it (as vfs.AttachMount
		// does) leaves the shared row alone.
		slices.Sort(opts)
		if c.row == cdrom && !slices.Equal(cdrom.Options, []string{"ro", "user", "noauto"}) {
			t.Fatalf("%s: row options changed to %v", c.name, cdrom.Options)
		}
	}
	for _, c := range []struct {
		name   string
		fstype string
		opts   []string
	}{
		{"ro dropped", "iso9660", []string{"user", "noauto", "sync"}},
		{"unsafe option", "iso9660", []string{"ro", "user", "noauto", "suid"}},
		{"type left to probe", "auto", []string{"ro", "user", "noauto"}},
	} {
		if cdrom.Yields(c.fstype, c.opts) {
			t.Errorf("%s: cdrom row yields %s %v", c.name, c.fstype, c.opts)
		}
	}
	const alice, bob = 1000, 1001
	for _, c := range []struct {
		name           string
		row            *FstabEntry
		fstype         string
		mountedBy, uid int
		want           bool
	}{
		{"user row, the mounter", cdrom, "iso9660", alice, alice, true},
		{"user row, another user", cdrom, "iso9660", alice, bob, false},
		{"user row, root's mount", cdrom, "iso9660", 0, alice, false},
		{"users row, another user", usb, "vfat", alice, bob, true},
		{"users row, root's mount", usb, "vfat", 0, bob, true},
		{"not a user row", root, "ext4", alice, alice, false},
		{"no row", nil, "ext4", alice, alice, false},
		{"fuse, the mounter", nil, "fuse", alice, alice, true},
		{"fuse, another user", nil, "fuse", alice, bob, false},
	} {
		if got := c.row.MayUnmount(c.fstype, c.mountedBy, c.uid); got != c.want {
			t.Errorf("%s: MayUnmount = %v, want %v", c.name, got, c.want)
		}
	}
	req := []string{"sync", "nosuid"}
	for name, f := range map[string]func(){
		"PermitsUserMount": func() { cdrom.PermitsUserMount("iso9660", req) },
		"Yields":           func() { cdrom.Yields("iso9660", cdrom.Options) },
		"MayUnmount":       func() { usb.MayUnmount("vfat", alice, bob) },
		"FindPair":         func() { FindPair(entries, "/dev/sdb1", "/media/usb") },
	} {
		if a := testing.AllocsPerRun(100, f); a != 0 {
			t.Errorf("%s: %v allocs, want 0", name, a)
		}
	}
}

// Property: parsing never panics and every returned entry has non-empty
// device/mountpoint/fstype fields.
func TestParseFstabProperty(t *testing.T) {
	f := func(lines []string) bool {
		entries, err := ParseFstab(strings.Join(lines, "\n"))
		if err != nil {
			return true
		}
		for _, e := range entries {
			if e.Device == "" || e.MountPoint == "" || e.FSType == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- sudoers ---

const sampleSudoers = `
Defaults env_keep = "TERM LANG"
Defaults timestamp_timeout = 10
User_Alias ADMINS = alice, dave
Cmnd_Alias PRINT = /usr/bin/lpr, /usr/bin/lpq
Runas_Alias OPERATORS = backup, archive

root    ALL = (ALL) ALL
ADMINS  ALL = (root) ALL
%wheel  ALL = (root) NOPASSWD: /bin/ls, /usr/bin/stat
bob     ALL = (alice) PRINT
carol   ALL = (OPERATORS) NOPASSWD: /usr/local/bin/backup.sh
eve     ALL = (root) SETENV: /bin/true
frank   ALL = (root) /usr/sbin/
`

func TestParseSudoers(t *testing.T) {
	s, err := ParseSudoers(sampleSudoers)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 7 {
		t.Fatalf("rules = %d", len(s.Rules))
	}
	if s.TimestampTimeout != 10*time.Minute {
		t.Fatalf("timeout = %v", s.TimestampTimeout)
	}
	if len(s.EnvKeep) != 2 || s.EnvKeep[0] != "TERM" {
		t.Fatalf("env_keep = %v", s.EnvKeep)
	}
	if got := s.UserAliases["ADMINS"]; len(got) != 2 || got[1] != "dave" {
		t.Fatalf("ADMINS = %v", got)
	}
}

func TestSudoersLookupTransition(t *testing.T) {
	s, err := ParseSudoers(sampleSudoers)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		user   string
		groups []string
		target string
		want   bool
	}{
		{"root", nil, "anyone", true},
		{"alice", nil, "root", true}, // via ADMINS alias
		{"dave", nil, "root", true},  // via ADMINS alias
		{"zed", []string{"wheel"}, "root", true},
		{"bob", nil, "alice", true},
		{"bob", nil, "root", false},
		{"carol", nil, "backup", true}, // via Runas_Alias
		{"carol", nil, "archive", true},
		{"carol", nil, "root", false},
		{"mallory", nil, "root", false},
	}
	for _, c := range cases {
		if ok := s.LookupTransition(c.user, c.groups, c.target); ok != c.want {
			t.Errorf("%s->%s: ok=%v want %v", c.user, c.target, ok, c.want)
		}
	}
}

// TestSudoersLastMatchWins checks sudoers(5)'s rule that the last matching
// row decides, with the same two rows in either order. alice is in wheel,
// so both rows delegate her to root; only the ALL row covers /usr/bin/id
// and "ALL", the command Protego's setgid hook asks about because a group
// switch admits every command.
func TestSudoersLastMatchWins(t *testing.T) {
	const all = "alice ALL = (ALL) ALL\n"
	const ls = "%wheel ALL = (ALL) NOPASSWD: /bin/ls\n"
	groups := []string{"wheel"}
	cases := []struct {
		order, cmd string
		noPw       bool
	}{
		{"ALL then NOPASSWD", "/bin/ls", true},
		{"ALL then NOPASSWD", "/usr/bin/id", false},
		{"ALL then NOPASSWD", "ALL", false},
		{"NOPASSWD then ALL", "/bin/ls", false},
		{"NOPASSWD then ALL", "/usr/bin/id", false},
		{"NOPASSWD then ALL", "ALL", false},
	}
	files := map[string]string{"ALL then NOPASSWD": all + ls, "NOPASSWD then ALL": ls + all}
	for _, c := range cases {
		s, err := ParseSudoers(files[c.order])
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []string{"root", "%shadow"} {
			g, ok := s.LookupCommand("alice", groups, target, c.cmd)
			if !ok || g.NoPasswd != c.noPw {
				t.Errorf("%s, %s %q: ok=%v NoPasswd=%v, want NoPasswd=%v", c.order, target, c.cmd, ok, g.NoPasswd, c.noPw)
			}
		}
	}
	// An empty command is no command: the NOPASSWD row alone delegates
	// the transition but permits neither "" nor every command.
	s, err := ParseSudoers(ls)
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"", "ALL"} {
		if _, ok := s.LookupCommand("alice", groups, "root", cmd); ok {
			t.Errorf("/bin/ls row matched command %q", cmd)
		}
	}
	if !s.LookupTransition("alice", groups, "root") {
		t.Error("/bin/ls row does not delegate alice to root")
	}
}

func TestSudoersLookupCommand(t *testing.T) {
	s, err := ParseSudoers(sampleSudoers)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		user, target, cmd string
		groups            []string
		want              bool
	}{
		{"bob", "alice", "/usr/bin/lpr", nil, true}, // via Cmnd_Alias
		{"bob", "alice", "/usr/bin/lpq", nil, true},
		{"bob", "alice", "/bin/rm", nil, false},
		{"zed", "root", "/bin/ls", []string{"wheel"}, true},
		{"zed", "root", "/bin/cat", []string{"wheel"}, false},
		{"alice", "root", "/anything/at/all", nil, true},
		{"frank", "root", "/usr/sbin/service", nil, true}, // directory spec
		{"frank", "root", "/usr/bin/service", nil, false},
	}
	for _, c := range cases {
		_, ok := s.LookupCommand(c.user, c.groups, c.target, c.cmd)
		if ok != c.want {
			t.Errorf("%s->%s %s: ok=%v want %v", c.user, c.target, c.cmd, ok, c.want)
		}
	}
}

func TestSudoersSanitizeEnv(t *testing.T) {
	s, err := ParseSudoers(sampleSudoers)
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]string{
		"TERM": "xterm", "LANG": "C", "LD_PRELOAD": "/tmp/evil.so", "IFS": ".",
	}
	g, ok := s.LookupCommand("bob", nil, "alice", "/usr/bin/lpr")
	if !ok {
		t.Fatal("lookup failed")
	}
	clean := s.SanitizeEnv(env, g)
	if _, ok := clean["LD_PRELOAD"]; ok {
		t.Fatal("LD_PRELOAD survived sanitization")
	}
	if clean["TERM"] != "xterm" {
		t.Fatalf("TERM lost: %v", clean)
	}
	// SETENV rules keep everything.
	gEve, ok := s.LookupCommand("eve", nil, "root", "/bin/true")
	if !ok {
		t.Fatal("eve lookup failed")
	}
	dirty := s.SanitizeEnv(env, gEve)
	if dirty["LD_PRELOAD"] != "/tmp/evil.so" {
		t.Fatal("SETENV rule should keep env")
	}
}

func TestSudoersParseErrors(t *testing.T) {
	cases := []string{
		"alice ALL (root) ALL",       // missing '='
		"alice = (root) ALL",         // missing host
		"alice ALL = (root ALL",      // unclosed runas
		"alice ALL = (root)",         // no commands
		"User_Alias lower = alice",   // lower-case alias
		"Cmnd_Alias X =",             // empty alias
		"Defaults env_keep \"TERM\"", // malformed env_keep
		"Defaults timestamp_timeout = x",
	}
	for _, in := range cases {
		if _, err := ParseSudoers(in); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestSudoersLineContinuation(t *testing.T) {
	s, err := ParseSudoers("alice ALL = (root) /bin/a, \\\n /bin/b\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 1 || len(s.Rules[0].Commands) != 2 {
		t.Fatalf("rules: %+v", s.Rules)
	}
}

// Regression (found by the vulngen misconfiguration fuzzer): a Cmnd_Alias
// cycle in /etc/sudoers must parse and match without unbounded recursion.
// The pre-fix expand() only skipped direct self-references, so the
// mutual cycle below overflowed the stack inside Compile — a
// config-triggered crash reachable through the monitoring daemon's
// delegation sync.
func TestSudoersAliasCycle(t *testing.T) {
	s, err := ParseSudoers(`Cmnd_Alias LOOP_A = LOOP_B, /bin/ls
Cmnd_Alias LOOP_B = LOOP_A, /usr/bin/id
%wheel ALL = (root) NOPASSWD: LOOP_A
`)
	if err != nil {
		t.Fatal(err)
	}
	// The cycle degrades to its reachable terminal members: both commands
	// stay matchable, the cycle itself confers nothing extra.
	groups := []string{"wheel"}
	if _, ok := s.LookupCommand("alice", groups, "root", "/bin/ls"); !ok {
		t.Fatal("terminal member /bin/ls lost through the cycle")
	}
	if _, ok := s.LookupCommand("alice", groups, "root", "/usr/bin/id"); !ok {
		t.Fatal("terminal member /usr/bin/id lost through the cycle")
	}
	if _, ok := s.LookupCommand("alice", groups, "root", "/bin/sh"); ok {
		t.Fatal("cycle granted an unlisted command")
	}
	// A user alias cycle with no terminal members matches no one.
	s2, err := ParseSudoers(`User_Alias CYC_X = CYC_Y
User_Alias CYC_Y = CYC_X
CYC_X ALL = (root) ALL
`)
	if err != nil {
		t.Fatal(err)
	}
	if s2.LookupTransition("alice", nil, "root") {
		t.Fatal("empty user-alias cycle granted a transition")
	}
}

const aliasSudoers = `
User_Alias ADMINS = alice, %wheel
Cmnd_Alias EDITORS = /usr/bin/vi, /usr/bin/nano args here
Runas_Alias OPS = root, operator

ADMINS ALL = (OPS) EDITORS
bob    ALL = (ALL) NOPASSWD: /usr/sbin/
%audit ALL = (root) /usr/bin/last
carol  ALL = (root) ALL
ALL    ALL = (root) /bin/ping
`

func TestSudoersAliasLookupSemantics(t *testing.T) {
	s, err := ParseSudoers(aliasSudoers)
	if err != nil {
		t.Fatal(err)
	}
	// Alias member by name.
	if g, ok := s.LookupCommand("alice", nil, "operator", "/usr/bin/vi"); !ok || g.NoPasswd {
		t.Fatalf("alice vi as operator: %+v %v", g, ok)
	}
	// Alias member by group.
	if _, ok := s.LookupCommand("frank", []string{"wheel"}, "root", "/usr/bin/nano"); !ok {
		t.Fatal("wheel member denied EDITORS")
	}
	// Directory spec is a prefix match.
	if g, ok := s.LookupCommand("bob", nil, "alice", "/usr/sbin/useradd"); !ok || !g.NoPasswd {
		t.Fatalf("bob useradd: %+v %v", g, ok)
	}
	if _, ok := s.LookupCommand("bob", nil, "alice", "/usr/bin/vi"); ok {
		t.Fatal("bob vi should be denied (outside /usr/sbin/)")
	}
	// ALL command grants any command.
	if _, ok := s.LookupCommand("carol", nil, "root", "/any/command"); !ok {
		t.Fatal("carol's ALL rule should match any command")
	}
	// ALL user row matches anyone, but only for its command.
	if _, ok := s.LookupCommand("eve", nil, "root", "/bin/ping"); !ok {
		t.Fatal("ALL-user ping rule should match eve")
	}
	if _, ok := s.LookupCommand("eve", nil, "root", "/bin/sh"); ok {
		t.Fatal("eve /bin/sh should be denied")
	}
	// Runas outside the rule's list is denied.
	if _, ok := s.LookupCommand("alice", nil, "nobody", "/usr/bin/vi"); ok {
		t.Fatal("alice as nobody should be denied")
	}
}

func TestSudoersDefaultTimeout(t *testing.T) {
	s, err := ParseSudoers("alice ALL = (root) ALL\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.TimestampTimeout != DefaultTimestampTimeout {
		t.Fatalf("timeout = %v", s.TimestampTimeout)
	}
}

// Property: parser never panics; rules that parse always have user, host,
// at least one runas, and at least one command.
func TestSudoersProperty(t *testing.T) {
	f := func(lines []string) bool {
		s, err := ParseSudoers(strings.Join(lines, "\n"))
		if err != nil {
			return true
		}
		for _, r := range s.Rules {
			if r.User == "" || r.Host == "" || len(r.RunAs) == 0 || len(r.Commands) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- /etc/bind ---

func TestParseBind(t *testing.T) {
	entries, err := ParseBind(`
# mail
25 tcp /usr/sbin/exim4 Debian-exim
80 tcp /usr/sbin/httpd www-data
514 udp /usr/sbin/syslogd root
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Port != 25 || entries[0].Proto != "tcp" || entries[0].User != "Debian-exim" {
		t.Fatalf("entry: %+v", entries[0])
	}
	if entries[2].Proto != "udp" {
		t.Fatalf("entry: %+v", entries[2])
	}
}

func TestParseBindErrors(t *testing.T) {
	cases := []string{
		"25 tcp /usr/sbin/exim4",   // missing user
		"0 tcp /x u",               // port 0
		"1024 tcp /x u",            // not privileged
		"25 sctp /x u",             // bad proto
		"25 tcp relative/path u",   // relative binary
		"25 tcp /a u\n25 tcp /b v", // duplicate allocation
	}
	for _, in := range cases {
		if _, err := ParseBind(in); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestBindSamePortDifferentProto(t *testing.T) {
	entries, err := ParseBind("53 tcp /usr/sbin/named bind\n53 udp /usr/sbin/named bind\n")
	if err != nil {
		t.Fatalf("tcp+udp on same port should be fine: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
}

func TestBindEntryString(t *testing.T) {
	e := BindEntry{Port: 25, Proto: "tcp", Binary: "/usr/sbin/exim4", User: "mail"}
	if e.String() != "25 tcp /usr/sbin/exim4 mail" {
		t.Fatalf("string: %q", e.String())
	}
}

// --- ppp options ---

func TestParsePPPOptions(t *testing.T) {
	o, err := ParsePPPOptions(`
# policy
device /dev/ppp
user-routes
safe-param vj-max-slots
asyncmap 0
noauth
`)
	if err != nil {
		t.Fatal(err)
	}
	if !o.AllowUserRoutes {
		t.Fatal("user-routes not parsed")
	}
	if !o.DeviceAllowed("/dev/ppp") || o.DeviceAllowed("/dev/ttyS0") {
		t.Fatalf("devices: %v", o.Devices)
	}
	if !o.ParamSafe("vj-max-slots") || !o.ParamSafe("bsdcomp") {
		t.Fatal("safe params missing")
	}
	if o.ParamSafe("defaultroute") {
		t.Fatal("defaultroute must not be safe")
	}
	// vj-max-slots is a default too: it is listed once, so the policy
	// rendered as safe-param lines parses back to itself.
	if want := len(DefaultPPPOptions().SafeParams); len(o.SafeParams) != want {
		t.Fatalf("safe params %v: a repeated name is listed again", o.SafeParams)
	}
}

func TestParsePPPOptionsErrors(t *testing.T) {
	cases := []string{
		"safe-param",            // missing name
		"device relative",       // relative device
		"some option with args", // too many fields
	}
	for _, in := range cases {
		if _, err := ParsePPPOptions(in); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestDefaultPPPOptions(t *testing.T) {
	o := DefaultPPPOptions()
	if o.AllowUserRoutes {
		t.Fatal("routes must default off")
	}
	if len(o.Devices) != 0 {
		t.Fatal("devices must default empty")
	}
}
