package world

import (
	"encoding/binary"
	"sort"
	"strconv"
	"strings"

	"protego/internal/accountdb"
	"protego/internal/errno"
	"protego/internal/netstack"
	"protego/internal/vfs"
)

// Digest is a fixed-size digest of a machine's observable state; see
// Machine.Fingerprint.
type Digest uint64

// FingerprintText renders the machine's observable state as one canonical
// text, designed so a freshly built baseline image and a freshly built
// Protego image render the *same* text, and stay equal as long as
// identical workloads have identical effects. It is the reference form of
// the state comparison shared by the equivalence corpus (internal/equiv)
// and the differential fuzzer (internal/difffuzz), and the form their
// failure reports show (see DiffText); Fingerprint is its digest.
//
// Sections, in order: live-task credentials (a sorted multiset — pids are
// excluded because the two images may fork different child counts inside a
// utility), the VFS tree (type, permissions, ownership, device numbers,
// symlink targets, and a content hash for regular files), the account
// databases (parsed and sorted, rather than raw bytes, because the Protego
// fragment sync rewrites the legacy files in a different record order), the
// mount table, the port-binding table, the routing table, and interface
// state.
//
// Normalizations (all are by-design differences between the two *images*,
// not behavioral divergences):
//
//   - /proc is skipped: /proc/protego exists only on Protego and the trace
//     files are dynamic.
//   - /etc/passwds, /etc/shadows, /etc/groups are skipped (the fragmented
//     database exists only on Protego); on Protego the fragments are first
//     converged into the legacy view via the monitoring daemon, and the
//     legacy files are compared as parsed records.
//   - /var/run/sudo is skipped: the baseline sudo keeps authentication
//     recency in timestamp files, Protego keeps it in the kernel task
//     struct (§4.3), so the bookkeeping location differs by design.
//   - The setuid/setgid bits of the studied binaries are masked — their
//     eradication IS the system under test (Table 1).
//   - /dev/ppp permission bits are masked (0600 baseline vs 0666 Protego,
//     the §4.1.2 relaxation).
func (m *Machine) FingerprintText() string {
	m.convergeAccounts()
	l := newLines(true)
	var b strings.Builder
	b.WriteString("[tasks]\n")
	l.tasks(m)
	l.writeSorted(&b)

	b.WriteString("[vfs]\n")
	var path []byte
	m.K.FS.Walk(func(p string, ino *vfs.Inode) bool {
		path = append(path[:0], p...)
		line, ok := appendInode(l.buf, path, ino)
		l.buf = line[:0]
		if ok {
			b.Write(line)
			b.WriteByte('\n')
		}
		return ok
	})

	b.WriteString("[accounts]\n")
	l.users(m)
	l.writeSorted(&b)
	l.groups(m)
	l.writeSorted(&b)
	b.WriteString("[mounts]\n")
	b.WriteString(m.K.FS.FormatMtab())
	b.WriteString("[ports]\n")
	l.ports(m)
	l.writeSorted(&b)
	b.WriteString("[routes]\n")
	l.routes(m)
	l.writeSorted(&b)
	b.WriteString("[ifaces]\n")
	l.ifaces(m)
	l.writeSorted(&b)
	return b.String()
}

// Fingerprint returns a digest of the state FingerprintText renders. Two
// digests are equal exactly when the two renderings are, up to 64-bit
// hash collisions, because the digest hashes the very lines the rendering
// is made of: a section the text sorts becomes the sum of its lines'
// hashes, which needs no sorting, and the mount table, whose order
// matters, is hashed whole.
//
// It is cheap where FingerprintText is not. No line becomes a string. The
// VFS section is vfs.FS.DigestTree, where sealed inodes keep their
// subtree's sum, so a clone of a golden image rehashes only what it has
// copied up. The accounts section is kept per snapshot while a clone's
// account files are still the snapshot's sealed inodes.
func (m *Machine) Fingerprint() Digest {
	pristine := m.convergeAccounts()
	l := newLines(false)
	l.tasks(m)
	d := mix64(l.flush())
	d = mix64(d ^ m.K.FS.DigestTree(l.inodeHash))
	d = mix64(d ^ m.accountsSum(l, pristine))
	d = mix64(d ^ fnv64a(m.K.FS.FormatMtab()))
	l.ports(m)
	d = mix64(d ^ l.flush())
	l.routes(m)
	d = mix64(d ^ l.flush())
	l.ifaces(m)
	return Digest(mix64(d ^ l.flush()))
}

// DiffText reports the lines in which two FingerprintText renderings a and
// b differ, one per line, each prefixed with the label of the side that
// has it. Lines are counted, not compared as sets: the [tasks] section
// holds one line per task, so two identical tasks against one differ by
// one line.
func DiffText(a, b, aLabel, bLabel string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	surplus := make(map[string]int, len(al))
	for _, line := range al {
		surplus[line]++
	}
	for _, line := range bl {
		surplus[line]--
	}
	width := max(len(aLabel), len(bLabel)) + 1
	var out strings.Builder
	emit := func(label, line string) {
		out.WriteString("  ")
		out.WriteString(label)
		out.WriteByte(':')
		out.WriteString(strings.Repeat(" ", width-len(label)))
		out.WriteString(line)
		out.WriteByte('\n')
	}
	for _, line := range al {
		if surplus[line] > 0 {
			surplus[line]--
			emit(aLabel, line)
		}
	}
	for _, line := range bl {
		if surplus[line] < 0 {
			surplus[line]++
			emit(bLabel, line)
		}
	}
	return out.String()
}

// lines collects the lines of one fingerprint section from the encoders
// below, as text for FingerprintText or as the sum of their hashes for
// Fingerprint, so the two forms cannot disagree on what a section holds.
type lines struct {
	buf  []byte // the line being encoded, in room at first
	room [128]byte
	keep bool // collect text instead of summing hashes
	text []string
	sum  uint64
}

func newLines(keep bool) *lines {
	l := &lines{keep: keep}
	l.buf = l.room[:0]
	return l
}

// end completes the line in buf.
func (l *lines) end() {
	if l.keep {
		l.text = append(l.text, string(l.buf))
	} else {
		l.sum += lineHash(l.buf)
	}
	l.buf = l.buf[:0]
}

// flush returns the section's digest and starts the next section.
func (l *lines) flush() uint64 {
	s := l.sum
	l.sum = 0
	return s
}

// writeSorted writes the section's text lines in sorted order and starts
// the next section.
func (l *lines) writeSorted(b *strings.Builder) {
	sort.Strings(l.text)
	for _, s := range l.text {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	l.text = l.text[:0]
}

// tasks encodes one line per live task: its credentials, with the
// supplementary groups sorted.
func (l *lines) tasks(m *Machine) {
	for _, t := range m.K.Tasks() {
		c := t.Creds() // a private copy, so its groups can be sorted in place
		sort.Ints(c.Groups)
		b := append(l.buf, "uid="...)
		b = appendInts(b, '/', c.RUID, c.EUID, c.SUID, c.FUID)
		b = append(b, " gid="...)
		b = appendInts(b, '/', c.RGID, c.EGID, c.SGID, c.FGID)
		b = append(b, " groups=["...)
		b = appendInts(b, ' ', c.Groups...)
		b = append(b, "] caps="...)
		b = strconv.AppendUint(b, uint64(c.Effective), 10)
		b = append(b, '/')
		l.buf = strconv.AppendUint(b, uint64(c.Permitted), 10)
		l.end()
	}
}

// inodeHash is the DigestTree leaf: the hash of the inode's [vfs] line.
func (l *lines) inodeHash(path []byte, ino *vfs.Inode) (uint64, bool) {
	line, ok := appendInode(l.buf, path, ino)
	l.buf = line[:0]
	return lineHash(line), ok
}

// appendInode appends the [vfs] line of ino, found at path, to b, or
// reports false when the inode and its subtree are left out.
func appendInode(b, path []byte, ino *vfs.Inode) ([]byte, bool) {
	if fingerprintSkip[string(path)] {
		return b, false
	}
	mode := ino.Mode
	switch {
	case setuidBinaries[string(path)]:
		mode &^= vfs.ModeSetuid | vfs.ModeSetgid
	case string(path) == "/dev/ppp":
		mode &^= vfs.ModeMask
	}
	b = append(b, path...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(mode), 8)
	b = append(b, ' ')
	b = appendInts(b, ':', ino.UID, ino.GID)
	switch {
	case ino.IsProc():
		// Synthetic files have dynamic contents; identity only.
	case mode.IsDevice():
		b = append(b, " dev="...)
		b = appendInts(b, ',', ino.Major, ino.Minor)
	case mode.IsSymlink():
		b = append(b, " -> "...)
		b = append(b, ino.Data...)
	case mode.IsRegular() && !fingerprintSemanticContent[string(path)]:
		b = append(b, " len="...)
		b = strconv.AppendInt(b, int64(len(ino.Data)), 10)
		b = append(b, " hash="...)
		b = strconv.AppendUint(b, fnv64a(ino.Data), 16)
	}
	return b, true
}

// fingerprintSkip prunes subtrees that exist on only one image or that hold
// by-design bookkeeping differences (see FingerprintText).
var fingerprintSkip = map[string]bool{
	"/proc":              true,
	"/var/run/sudo":      true,
	accountdb.PasswdsDir: true,
	accountdb.ShadowsDir: true,
	accountdb.GroupsDir:  true,
}

// fingerprintSemanticContent marks files whose contents are compared as
// parsed, sorted records in the [accounts] section instead of raw bytes
// (the fragment sync rewrites them in a different record order).
var fingerprintSemanticContent = map[string]bool{
	accountdb.PasswdFile: true,
	accountdb.ShadowFile: true,
	accountdb.GroupFile:  true,
}

// users encodes the parsed passwd database, one line per user with the
// password hash it resolves to. Read errors are lines of their own: a
// missing or corrupt database is observable state, and must diverge
// rather than be skipped.
func (l *lines) users(m *Machine) {
	users, err := m.DB.Users()
	if err != nil {
		l.buf = append(append(l.buf, "users-error: "...), err.Error()...)
		l.end()
		return
	}
	shadow := m.DB.ShadowHashes()
	for i := range users {
		u := &users[i]
		b := append(l.buf, "user "...)
		b = append(b, u.Name...)
		b = append(b, ':')
		b = appendInts(b, ':', u.UID, u.GID)
		for _, f := range [...]string{u.Gecos, u.Home, u.Shell} {
			b = append(append(b, ':'), f...)
		}
		b = append(b, " shadow="...)
		if hash, herr := shadow(u.Name); herr != nil {
			b = append(append(b, "shadow-error:"...), herr.Error()...)
		} else {
			b = append(b, hash...)
		}
		l.buf = b
		l.end()
	}
}

// groups encodes the parsed group database, one line per group, like
// users.
func (l *lines) groups(m *Machine) {
	groups, err := m.DB.Groups()
	if err != nil {
		l.buf = append(append(l.buf, "groups-error: "...), err.Error()...)
		l.end()
		return
	}
	for i := range groups {
		g := &groups[i]
		sort.Strings(g.Members) // freshly parsed, so sorted in place
		b := append(l.buf, "group "...)
		b = append(b, g.Name...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(g.GID), 10)
		b = append(b, ':')
		b = append(b, g.Password...)
		b = append(b, ":["...)
		for j, name := range g.Members {
			if j > 0 {
				b = append(b, ' ')
			}
			b = append(b, name...)
		}
		l.buf = append(b, ']')
		l.end()
	}
}

// ports encodes one line per bound (protocol, port) with its owner.
func (l *lines) ports(m *Machine) {
	for _, p := range m.K.Net.BoundPorts() {
		b := appendInts(l.buf, '/', p.Proto, p.Port)
		b = append(b, " uid="...)
		l.buf = strconv.AppendInt(b, int64(p.OwnerUID), 10)
		l.end()
	}
}

// routes encodes one line per route, in the form of Route.String.
func (l *lines) routes(m *Machine) {
	for _, r := range m.K.Net.Routes() {
		b := appendIP(l.buf, r.Dest)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(r.PrefixLen), 10)
		b = append(b, " via "...)
		b = appendIP(b, r.Gateway)
		b = append(b, " dev "...)
		b = append(b, r.Iface...)
		b = append(b, " metric "...)
		l.buf = strconv.AppendInt(b, int64(r.Metric), 10)
		l.end()
	}
}

// ifaces encodes one line per interface, with its session parameters
// sorted.
func (l *lines) ifaces(m *Machine) {
	var params []string
	for _, iface := range m.K.Net.Ifaces() {
		params = params[:0]
		for k, v := range iface.Params {
			params = append(params, k+"="+v)
		}
		sort.Strings(params)
		b := append(l.buf, iface.Name...)
		b = append(b, " up="...)
		b = strconv.AppendBool(b, iface.Up)
		b = append(b, " inuse="...)
		b = strconv.AppendBool(b, iface.InUse)
		b = append(b, " owner="...)
		b = strconv.AppendInt(b, int64(iface.Owner), 10)
		b = append(b, " params=["...)
		for i, p := range params {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, p...)
		}
		l.buf = append(b, ']')
		l.end()
	}
}

func appendInts(b []byte, sep byte, vs ...int) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, sep)
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

func appendIP(b []byte, ip netstack.IP) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(ip>>shift)), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// lineHash hashes a line eight bytes at a time into a well-mixed 64-bit
// value, so that sums of line hashes behave as multiset hashes.
func lineHash(line []byte) uint64 {
	h := mix64(uint64(len(line)))
	for ; len(line) >= 8; line = line[8:] {
		h = mix64(h ^ binary.LittleEndian.Uint64(line))
	}
	var tail uint64
	for i, c := range line {
		tail |= uint64(c) << (8 * i)
	}
	return mix64(h ^ tail)
}

// fnv64a is 64-bit FNV-1a, the content hash the [vfs] lines show.
func fnv64a[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the MurmurHash3 finalizer, a bijection that makes every input
// bit affect every output bit.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// accountFilePaths are the account files: the legacy databases the
// [accounts] section reads, and the fragment trees the Protego sync
// converges into them (ShadowHash also reads the shadow fragments).
var accountFilePaths = [...]string{
	accountdb.PasswdFile, accountdb.ShadowFile, accountdb.GroupFile,
	accountdb.PasswdsDir, accountdb.ShadowsDir, accountdb.GroupsDir,
}

// accountFiles resolves accountFilePaths into inos, nil where a path does
// not exist, and reports false if a lookup failed for any other reason.
func (m *Machine) accountFiles(inos []*vfs.Inode) bool {
	for i, p := range accountFilePaths {
		ino, err := m.K.FS.Lookup(vfs.RootCred, p)
		if err != nil && !errno.Is(err, errno.ENOENT) {
			return false
		}
		inos[i] = ino
	}
	return true
}

// pristineAccounts reports whether the account files all still resolve to
// the inodes the snapshot froze. Those never change, and nothing below a
// sealed directory does either, so whatever reads only them gives the
// same result in every such clone. (The image's account files are no
// symlinks and hold none, so no read leads elsewhere.) They all live in
// /etc, so a clone whose /etc is still the frozen one needs no more
// lookups.
func (m *Machine) pristineAccounts() bool {
	s := m.image
	if s == nil || s.etc == nil {
		return false
	}
	if etc, err := m.K.FS.Lookup(vfs.RootCred, "/etc"); err == nil && etc == s.etc {
		return true
	}
	var now [len(accountFilePaths)]*vfs.Inode
	return m.accountFiles(now[:]) && now == s.accountFiles
}

// convergeAccounts converges the Protego-only fragment tree into the
// legacy account files first, mirroring what the monitoring daemon does
// continuously. The sync is skipped on a clone whose account files are
// still the snapshot's, once a sync has found those converged: it would
// rewrite nothing. It reports whether the files are pristine afterwards.
func (m *Machine) convergeAccounts() bool {
	pristine := m.pristineAccounts()
	if m.Monitor == nil || pristine && m.image.converged.Load() {
		return pristine
	}
	err := m.Monitor.SyncAccountsFromFragments()
	if !pristine {
		return false // a sync only ever writes private copies
	}
	// A sync that rewrote a file copied it up; one that did not left the
	// snapshot's files as they are, converged.
	pristine = m.pristineAccounts()
	if err == nil && pristine {
		m.image.converged.Store(true)
	}
	return pristine
}

// accountsSum is the digest of the [accounts] section. A clone whose
// account files are pristine shares it with every such clone, so the
// snapshot keeps it.
func (m *Machine) accountsSum(l *lines, pristine bool) uint64 {
	if pristine {
		s := m.image
		s.accountsOnce.Do(func() {
			l.users(m)
			l.groups(m)
			s.accounts = l.flush()
		})
		return s.accounts
	}
	l.users(m)
	l.groups(m)
	return l.flush()
}
