package accountdb

import (
	"fmt"
	"slices"
	"strings"

	"protego/internal/errno"
	"protego/internal/vfs"
)

// Fragmented database locations (§4.4): one file per account, owned by the
// account, mode rw-------, inside root-owned rwxr-xr-x directories so
// unprivileged users cannot add accounts.
const (
	PasswdFile = "/etc/passwd"
	ShadowFile = "/etc/shadow"
	GroupFile  = "/etc/group"
	PasswdsDir = "/etc/passwds"
	ShadowsDir = "/etc/shadows"
	GroupsDir  = "/etc/groups"
)

// DB reads the account databases from a simulated file system. Reads are
// performed with kernel (root) credentials: the DB is consulted by the
// kernel's LSM and trusted services, never directly by untrusted tasks.
// Every lookup reads the file afresh, so DAC, fault injection and every
// write take effect on the next call; only the parse of passwd and group
// is shared (see passwdMemo). What a lookup returns is the caller's own.
type DB struct {
	fs *vfs.FS
}

// passwdMemo and groupMemo parse each distinct /etc/passwd and /etc/group
// content once per process, for every machine, clone and DB view that
// reads it (one memo per file, so the two lookups never share a lock).
// The records are shared and never written, so they must not leave this
// package: DB returns copies.
var (
	passwdMemo, groupMemo vfs.Memo

	passwdKind = vfs.NewMemoKind(ParsePasswd)
	groupKind  = vfs.NewMemoKind(ParseGroup)
)

// NewDB creates a database view over fs.
func NewDB(fs *vfs.FS) *DB { return &DB{fs: fs} }

// users reads /etc/passwd and returns the memo's shared parse of it, for
// callers in this package that only read the records.
func (db *DB) users() ([]User, error) {
	data, err := db.fs.ReadFile(vfs.RootCred, PasswdFile)
	if err != nil {
		return nil, err
	}
	return passwdKind.Parse(&passwdMemo, data)
}

// groups is users for /etc/group.
func (db *DB) groups() ([]Group, error) {
	data, err := db.fs.ReadFile(vfs.RootCred, GroupFile)
	if err != nil {
		return nil, err
	}
	return groupKind.Parse(&groupMemo, data)
}

// Users returns all passwd records (from the legacy shared file).
func (db *DB) Users() ([]User, error) {
	users, err := db.users()
	if err != nil {
		return nil, err
	}
	return slices.Clone(users), nil
}

// LookupUser finds a user by name.
func (db *DB) LookupUser(name string) (*User, error) {
	users, err := db.users()
	if err != nil {
		return nil, err
	}
	if u := findUser(users, name); u != nil {
		cp := *u
		return &cp, nil
	}
	return nil, errno.ENOENT
}

// LookupUID finds a user by uid.
func (db *DB) LookupUID(uid int) (*User, error) {
	users, err := db.users()
	if err != nil {
		return nil, err
	}
	for i := range users {
		if users[i].UID == uid {
			u := users[i]
			return &u, nil
		}
	}
	return nil, errno.ENOENT
}

func findUser(users []User, name string) *User {
	for i := range users {
		if users[i].Name == name {
			return &users[i]
		}
	}
	return nil
}

// Groups returns all group records.
func (db *DB) Groups() ([]Group, error) {
	groups, err := db.groups()
	if err != nil {
		return nil, err
	}
	out := make([]Group, len(groups))
	for i := range groups {
		out[i] = groups[i].clone()
	}
	return out, nil
}

// clone copies g with a Members slice of its own.
func (g *Group) clone() Group {
	cp := *g
	cp.Members = slices.Clone(g.Members)
	return cp
}

// LookupGroup finds a group by name.
func (db *DB) LookupGroup(name string) (*Group, error) {
	groups, err := db.groups()
	if err != nil {
		return nil, err
	}
	for i := range groups {
		if groups[i].Name == name {
			g := groups[i].clone()
			return &g, nil
		}
	}
	return nil, errno.ENOENT
}

// LookupGID finds a group by gid.
func (db *DB) LookupGID(gid int) (*Group, error) {
	groups, err := db.groups()
	if err != nil {
		return nil, err
	}
	for i := range groups {
		if groups[i].GID == gid {
			g := groups[i].clone()
			return &g, nil
		}
	}
	return nil, errno.ENOENT
}

// GroupNamesOf returns the names of the groups user belongs to (primary
// group plus memberships).
func (db *DB) GroupNamesOf(user string) ([]string, error) {
	users, err := db.users()
	if err != nil {
		return nil, err
	}
	u := findUser(users, user)
	if u == nil {
		return nil, errno.ENOENT
	}
	groups, err := db.groups()
	if err != nil {
		return nil, err
	}
	return GroupNames(u, groups), nil
}

// GroupNames returns the names of the groups in groups that u belongs to:
// its primary group plus those listing it as a member, in file order.
func GroupNames(u *User, groups []Group) []string {
	var names []string
	for i := range groups {
		g := &groups[i]
		if g.GID == u.GID || slices.Contains(g.Members, u.Name) {
			names = append(names, g.Name)
		}
	}
	return names
}

// GroupIDsOf returns the supplementary gids of user (excluding the primary).
func (db *DB) GroupIDsOf(user string) ([]int, error) {
	users, err := db.users()
	if err != nil {
		return nil, err
	}
	u := findUser(users, user)
	if u == nil {
		return nil, errno.ENOENT
	}
	groups, err := db.groups()
	if err != nil {
		return nil, err
	}
	var gids []int
	for i := range groups {
		g := &groups[i]
		if g.GID != u.GID && slices.Contains(g.Members, user) {
			gids = append(gids, g.GID)
		}
	}
	return gids, nil
}

// ShadowHash returns the stored password hash for user, consulting the
// fragmented per-user file first and falling back to the legacy shared
// shadow file.
func (db *DB) ShadowHash(user string) (string, error) {
	var legacy legacyShadow
	return legacy.hash(db, user)
}

// ShadowHashes returns a lookup with ShadowHash's answers that reads and
// parses the legacy shadow file at most once, for a caller resolving many
// users against one state of the databases.
func (db *DB) ShadowHashes() func(user string) (string, error) {
	legacy := &legacyShadow{}
	return func(user string) (string, error) { return legacy.hash(db, user) }
}

// legacyShadow is the shared shadow file, read on first use.
type legacyShadow struct {
	read    bool
	entries []ShadowEntry
	err     error
}

func (s *legacyShadow) hash(db *DB, user string) (string, error) {
	if data, err := db.fs.ReadFile(vfs.RootCred, ShadowsDir+"/"+user); err == nil {
		entries, perr := ParseShadow(string(data))
		if perr == nil && len(entries) == 1 {
			return entries[0].Hash, nil
		}
	}
	if !s.read {
		s.read = true
		var data []byte
		if data, s.err = db.fs.ReadFile(vfs.RootCred, ShadowFile); s.err == nil {
			s.entries, s.err = ParseShadow(string(data))
		}
	}
	if s.err != nil {
		return "", s.err
	}
	for i := range s.entries {
		if s.entries[i].Name == user {
			return s.entries[i].Hash, nil
		}
	}
	return "", errno.ENOENT
}

// Fragment splits the shared database files into per-account files:
//
//	/etc/passwds/<user>  rw------- <user> <user-gid>  (one passwd line)
//	/etc/shadows/<user>  rw------- <user> <user-gid>  (one shadow line)
//	/etc/groups/<group>  rw-r----- root   <gid>       (one group line)
//
// The containing directories are rwxr-xr-x root:root so users cannot mint
// accounts. Existing fragments are overwritten from the shared files (the
// shared files remain authoritative at fragmentation time).
func Fragment(fs *vfs.FS) error {
	db := NewDB(fs)
	users, err := db.users()
	if err != nil {
		return err
	}
	shadow, err := readShadow(fs)
	if err != nil {
		return err
	}
	groups, err := db.groups()
	if err != nil {
		return err
	}
	for _, dir := range []string{PasswdsDir, ShadowsDir, GroupsDir} {
		if !fs.Exists(vfs.RootCred, dir) {
			if _, err := fs.Mkdir(vfs.RootCred, dir, 0o755, 0, 0); err != nil {
				return fmt.Errorf("fragment: mkdir %s: %w", dir, err)
			}
		}
	}
	hashes := make(map[string]string, len(shadow))
	for i := range shadow {
		hashes[shadow[i].Name] = shadow[i].Hash
	}
	for i := range users {
		u := &users[i]
		if err := writeFragment(fs, PasswdsDir+"/"+u.Name, u.Line()+"\n", 0o600, u.UID, u.GID); err != nil {
			return err
		}
		se := ShadowEntry{Name: u.Name, Hash: hashes[u.Name]}
		if err := writeFragment(fs, ShadowsDir+"/"+u.Name, se.Line()+"\n", 0o600, u.UID, u.GID); err != nil {
			return err
		}
	}
	// Group fragments are root-owned but group-writable: membership and
	// group passwords are manageable by the group itself, matching DAC
	// granularity (§4.4).
	for i := range groups {
		g := &groups[i]
		if err := writeFragment(fs, GroupsDir+"/"+g.Name, g.Line()+"\n", 0o660, 0, g.GID); err != nil {
			return err
		}
	}
	return nil
}

func writeFragment(fs *vfs.FS, path, content string, mode vfs.Mode, uid, gid int) error {
	// Idempotence: skipping unchanged writes lets the monitoring daemon's
	// two-way synchronization converge instead of ping-ponging events.
	if existing, err := fs.ReadFile(vfs.RootCred, path); err == nil && string(existing) == content {
		return nil
	}
	if err := fs.WriteFile(vfs.RootCred, path, []byte(content), mode, uid, gid); err != nil {
		return fmt.Errorf("fragment: write %s: %w", path, err)
	}
	// WriteFile of an existing file keeps its ownership; enforce ours.
	if err := fs.Chown(vfs.RootCred, path, uid, gid); err != nil {
		return err
	}
	return fs.Chmod(vfs.RootCred, path, mode)
}

func readShadow(fs *vfs.FS) ([]ShadowEntry, error) {
	data, err := fs.ReadFile(vfs.RootCred, ShadowFile)
	if err != nil {
		return nil, err
	}
	return ParseShadow(string(data))
}

// SynthesizeLegacy rebuilds the shared /etc/passwd, /etc/shadow, and
// /etc/group files from the per-account fragments — the backward
// compatibility direction maintained by the monitoring daemon so
// applications that read the legacy formats keep working (§2).
func SynthesizeLegacy(fs *vfs.FS) error {
	var users []User
	var shadows []ShadowEntry
	var groups []Group
	names, err := fs.ReadDir(vfs.RootCred, PasswdsDir)
	if err != nil {
		return err
	}
	for _, name := range names {
		data, err := fs.ReadFile(vfs.RootCred, PasswdsDir+"/"+name)
		if err != nil {
			return err
		}
		us, err := ParsePasswd(string(data))
		if err != nil {
			return fmt.Errorf("synthesize: fragment %s: %w", name, err)
		}
		users = append(users, us...)
	}
	shadowNames, err := fs.ReadDir(vfs.RootCred, ShadowsDir)
	if err != nil {
		return err
	}
	for _, name := range shadowNames {
		data, err := fs.ReadFile(vfs.RootCred, ShadowsDir+"/"+name)
		if err != nil {
			return err
		}
		es, err := ParseShadow(string(data))
		if err != nil {
			return fmt.Errorf("synthesize: shadow fragment %s: %w", name, err)
		}
		shadows = append(shadows, es...)
	}
	groupNames, err := fs.ReadDir(vfs.RootCred, GroupsDir)
	if err != nil {
		return err
	}
	for _, name := range groupNames {
		data, err := fs.ReadFile(vfs.RootCred, GroupsDir+"/"+name)
		if err != nil {
			return err
		}
		gs, err := ParseGroup(string(data))
		if err != nil {
			return fmt.Errorf("synthesize: group fragment %s: %w", name, err)
		}
		groups = append(groups, gs...)
	}
	// An empty fragment set means the tree was never (or only partially)
	// populated; rebuilding from it would wipe every account. Fail instead
	// and leave the legacy files as they are.
	if len(users) == 0 {
		return fmt.Errorf("synthesize: no passwd fragments, refusing to empty %s", PasswdFile)
	}
	if err := writeIfChanged(fs, PasswdFile, FormatPasswd(users), 0o644, 0, 0); err != nil {
		return err
	}
	if err := writeIfChanged(fs, ShadowFile, FormatShadow(shadows), 0o600, 0, 42); err != nil {
		return err
	}
	return writeIfChanged(fs, GroupFile, FormatGroup(groups), 0o644, 0, 0)
}

// writeIfChanged writes content to path only when it differs, keeping the
// monitoring daemon's bidirectional sync convergent.
func writeIfChanged(fs *vfs.FS, path, content string, mode vfs.Mode, uid, gid int) error {
	if existing, err := fs.ReadFile(vfs.RootCred, path); err == nil && string(existing) == content {
		return nil
	}
	return fs.WriteFile(vfs.RootCred, path, []byte(content), mode, uid, gid)
}

// ValidatePasswdLine checks that a user-supplied passwd line is a sane
// single record for the named user — the validation passwd/chsh perform
// before touching the database, now applied to per-user fragments.
func ValidatePasswdLine(line, user string, uid, gid int) error {
	if strings.ContainsAny(line, "\n") {
		return fmt.Errorf("record must be a single line")
	}
	users, err := ParsePasswd(line)
	if err != nil {
		return err
	}
	if len(users) != 1 {
		return fmt.Errorf("expected exactly one record")
	}
	u := users[0]
	if u.Name != user {
		return fmt.Errorf("record renames user %q to %q", user, u.Name)
	}
	if u.UID != uid || u.GID != gid {
		return fmt.Errorf("record changes uid/gid")
	}
	for _, field := range []string{u.Gecos, u.Home, u.Shell} {
		if strings.ContainsAny(field, ":") {
			return fmt.Errorf("field contains ':'")
		}
	}
	return nil
}
