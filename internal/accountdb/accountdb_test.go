package accountdb

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"protego/internal/errno"
	"protego/internal/faultinject"
	"protego/internal/kernel"
	"protego/internal/vfs"
)

const samplePasswd = `root:x:0:0:root:/root:/bin/sh
alice:x:1000:100:Alice:/home/alice:/bin/sh
bob:x:1001:100:Bob:/home/bob:/bin/zsh
`

const sampleShadow = `root:$5$pgroot$abc:0:0:99999:7:::
alice:$5$pgalice$def:0:0:99999:7:::
bob:!:0:0:99999:7:::
`

const sampleGroup = `root:x:0:
users:x:100:alice,bob
ops:$5$pgops$ff:20:alice
`

func TestParsePasswd(t *testing.T) {
	users, err := ParsePasswd(samplePasswd)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 3 {
		t.Fatalf("users = %d", len(users))
	}
	alice := users[1]
	if alice.Name != "alice" || alice.UID != 1000 || alice.GID != 100 ||
		alice.Home != "/home/alice" || alice.Shell != "/bin/sh" || alice.Gecos != "Alice" {
		t.Fatalf("alice: %+v", alice)
	}
}

func TestParsePasswdErrors(t *testing.T) {
	for _, in := range []string{"tooshort:x:1", "bad:x:NaN:0:::/bin/sh", "bad:x:0:NaN:::/bin/sh"} {
		if _, err := ParsePasswd(in); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestPasswdRoundTrip(t *testing.T) {
	users, err := ParsePasswd(samplePasswd)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParsePasswd(FormatPasswd(users))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(users) {
		t.Fatal("round trip lost users")
	}
	for i := range users {
		if users[i] != again[i] {
			t.Fatalf("row %d: %+v != %+v", i, users[i], again[i])
		}
	}
}

func TestParseShadow(t *testing.T) {
	entries, err := ParseShadow(sampleShadow)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[2].Hash != "!" {
		t.Fatalf("entries: %+v", entries)
	}
}

func TestParseGroup(t *testing.T) {
	groups, err := ParseGroup(sampleGroup)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[1].Name != "users" || len(groups[1].Members) != 2 {
		t.Fatalf("users: %+v", groups[1])
	}
	if groups[0].Password != "" {
		t.Fatal("'x' must mean no password")
	}
	if groups[2].Password == "" {
		t.Fatal("ops password lost")
	}
}

func TestPasswordHashing(t *testing.T) {
	h := HashPassword("secret", "salt1")
	if !strings.HasPrefix(h, "$5$salt1$") {
		t.Fatalf("hash format: %q", h)
	}
	if !VerifyPassword(h, "secret") {
		t.Fatal("correct password rejected")
	}
	if VerifyPassword(h, "wrong") {
		t.Fatal("wrong password accepted")
	}
	if VerifyPassword(h, "") {
		t.Fatal("empty password accepted")
	}
	if HashPassword("secret", "salt2") == h {
		t.Fatal("salt ignored")
	}
	// Locked and malformed entries never verify.
	for _, locked := range []string{"!", "*", "", "$1$old$style", "!$5$salt1$deadbeef"} {
		if VerifyPassword(locked, "secret") {
			t.Errorf("locked hash %q verified", locked)
		}
	}
}

// Property: verify(hash(p, s), p) holds for arbitrary printable passwords
// and salts; verify with any *different* password fails.
func TestHashVerifyProperty(t *testing.T) {
	f := func(p, other, salt string) bool {
		if strings.ContainsAny(p, "$") || strings.ContainsAny(salt, "$") {
			return true
		}
		h := HashPassword(p, salt)
		if !VerifyPassword(h, p) {
			return false
		}
		if other != p && VerifyPassword(h, other) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func newDBFS(t *testing.T) *vfs.FS {
	t.Helper()
	fs := vfs.New()
	writeDBFiles(t, fs)
	return fs
}

func writeDBFiles(t *testing.T, fs *vfs.FS) {
	t.Helper()
	if _, err := fs.Mkdir(vfs.RootCred, "/etc", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	write := func(path, content string, mode vfs.Mode) {
		if err := fs.WriteFile(vfs.RootCred, path, []byte(content), mode, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	write(PasswdFile, samplePasswd, 0o644)
	write(ShadowFile, sampleShadow, 0o600)
	write(GroupFile, sampleGroup, 0o644)
}

func TestDBLookups(t *testing.T) {
	db := NewDB(newDBFS(t))
	u, err := db.LookupUser("alice")
	if err != nil || u.UID != 1000 {
		t.Fatalf("lookup alice: %+v %v", u, err)
	}
	u, err = db.LookupUID(1001)
	if err != nil || u.Name != "bob" {
		t.Fatalf("lookup 1001: %+v %v", u, err)
	}
	if _, err := db.LookupUser("mallory"); err == nil {
		t.Fatal("phantom user")
	}
	g, err := db.LookupGroup("ops")
	if err != nil || g.GID != 20 {
		t.Fatalf("lookup ops: %+v %v", g, err)
	}
	g, err = db.LookupGID(100)
	if err != nil || g.Name != "users" {
		t.Fatalf("lookup 100: %+v %v", g, err)
	}
	names, err := db.GroupNamesOf("alice")
	if err != nil {
		t.Fatal(err)
	}
	// alice: users (primary) + ops (member)
	if len(names) != 2 {
		t.Fatalf("alice groups: %v", names)
	}
	gids, err := db.GroupIDsOf("alice")
	if err != nil || len(gids) != 1 || gids[0] != 20 {
		t.Fatalf("alice gids: %v %v", gids, err)
	}

	// The parse of each content is shared by every DB that reads it, so
	// what a lookup returns must be a copy: writing to it may not change
	// what the next lookup, from any DB, sees.
	t.Run("callers own results", func(t *testing.T) {
		db := NewDB(newDBFS(t))
		mustUser := func(u *User, err error) *User {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			return u
		}
		mustGroup := func(g *Group, err error) *Group {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		mustUser(db.LookupUser("alice")).Shell = "/bin/evil"
		mustUser(db.LookupUID(1001)).Gecos = "evil"
		mustGroup(db.LookupGroup("ops")).Password = "evil"
		mustGroup(db.LookupGroup("users")).Members[0] = "mallory"
		users, err := db.Users()
		if err != nil {
			t.Fatal(err)
		}
		users[0].Name = "evil"
		groups, err := db.Groups()
		if err != nil {
			t.Fatal(err)
		}
		for i := range groups {
			sort.Sort(sort.Reverse(sort.StringSlice(groups[i].Members)))
			for j := range groups[i].Members {
				groups[i].Members[j] = "mallory"
			}
		}
		db = NewDB(newDBFS(t))
		if u := mustUser(db.LookupUser("alice")); u.Shell != "/bin/sh" {
			t.Errorf("alice's shell = %q", u.Shell)
		}
		if u := mustUser(db.LookupUID(1001)); u.Gecos != "Bob" {
			t.Errorf("bob's gecos = %q", u.Gecos)
		}
		if g := mustGroup(db.LookupGroup("ops")); g.Password != "$5$pgops$ff" {
			t.Errorf("ops password = %q", g.Password)
		}
		if g := mustGroup(db.LookupGID(100)); strings.Join(g.Members, ",") != "alice,bob" {
			t.Errorf("users members = %v", g.Members)
		}
		if users, err := db.Users(); err != nil || users[0].Name != "root" {
			t.Errorf("users = %+v, %v", users, err)
		}
		if gids, err := db.GroupIDsOf("alice"); err != nil || len(gids) != 1 || gids[0] != 20 {
			t.Errorf("alice gids: %v %v", gids, err)
		}
	})

	// Every lookup reads the file, so it sees the bytes of the last
	// write, whatever the write kept equal: the inode (WriteFile,
	// AppendFile, a descriptor), the length and mtime (the kernel write).
	t.Run("sees every write", func(t *testing.T) {
		k := kernel.New(kernel.ModeLinux)
		writeDBFiles(t, k.FS)
		db := NewDB(k.FS)
		shell := func(name string) string {
			t.Helper()
			u, err := db.LookupUser(name)
			if err != nil {
				t.Fatalf("lookup %s: %v", name, err)
			}
			return u.Shell
		}
		if shell("bob") != "/bin/zsh" {
			t.Fatal("bob's shell before the writes")
		}
		edited := strings.Replace(samplePasswd, "/bin/zsh", "/bin/ksh", 1)
		if err := k.FS.WriteFile(vfs.RootCred, PasswdFile, []byte(edited), 0o644, 0, 0); err != nil {
			t.Fatal(err)
		}
		if got := shell("bob"); got != "/bin/ksh" {
			t.Fatalf("after WriteFile: bob's shell = %q", got)
		}
		if err := k.FS.AppendFile(vfs.RootCred, PasswdFile, []byte("dave:x:1003:100:Dave:/home/dave:/bin/sh\n")); err != nil {
			t.Fatal(err)
		}
		if got := shell("dave"); got != "/bin/sh" {
			t.Fatalf("after AppendFile: dave's shell = %q", got)
		}
		if err := k.FS.WriteFile(vfs.RootCred, "/etc/passwd.new", []byte(samplePasswd), 0o644, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := k.FS.Rename(vfs.RootCred, "/etc/passwd.new", PasswdFile); err != nil {
			t.Fatal(err)
		}
		if got := shell("bob"); got != "/bin/zsh" {
			t.Fatalf("after Rename: bob's shell = %q", got)
		}
		if _, err := db.LookupUser("dave"); err != errno.ENOENT {
			t.Fatalf("after Rename: dave: %v", err)
		}
		root := k.InitTask()
		fd, err := k.Open(root, PasswdFile, kernel.O_WRONLY)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(root, fd, []byte("toor")); err != nil {
			t.Fatal(err)
		}
		if u, err := db.LookupUID(0); err != nil || u.Name != "toor" {
			t.Fatalf("after a same-length fd write: uid 0 = %+v, %v", u, err)
		}
	})

	// A read error is the caller's to see, and never remembered; a parse
	// error is the same on every call.
	t.Run("errors", func(t *testing.T) {
		fs := newDBFS(t)
		db := NewDB(fs)
		if _, err := db.LookupUser("alice"); err != nil {
			t.Fatal(err)
		}
		fs.SetFaultInjector(faultinject.New(faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
			{Site: faultinject.SiteVFSReadFile, Action: faultinject.ActErr, Err: errno.EIO, Nth: 1},
		}}))
		if _, err := db.LookupUser("alice"); !errno.Is(err, errno.EIO) {
			t.Fatalf("lookup with the read fault armed: %v, want EIO", err)
		}
		if _, err := db.LookupUser("alice"); err != nil {
			t.Fatalf("lookup after the fault: %v", err)
		}
		if err := fs.WriteFile(vfs.RootCred, GroupFile, []byte("users:x:NaN:alice\n"), 0o644, 0, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := db.LookupGroup("users"); err == nil || !strings.Contains(err.Error(), "bad gid") {
				t.Fatalf("call %d on a malformed group file: %v", i+1, err)
			}
		}
	})
}

func TestShadowHash(t *testing.T) {
	db := NewDB(newDBFS(t))
	h, err := db.ShadowHash("alice")
	if err != nil || !strings.Contains(h, "pgalice") {
		t.Fatalf("hash: %q %v", h, err)
	}
	if _, err := db.ShadowHash("mallory"); err == nil {
		t.Fatal("phantom shadow entry")
	}
}

func TestFragmentAndSynthesize(t *testing.T) {
	fs := newDBFS(t)
	if err := Fragment(fs); err != nil {
		t.Fatal(err)
	}
	// Per-user files exist with the right ownership and mode.
	ino, err := fs.Lookup(vfs.RootCred, PasswdsDir+"/alice")
	if err != nil {
		t.Fatal(err)
	}
	if ino.UID != 1000 || ino.Mode.Perm()&0o777 != 0o600 {
		t.Fatalf("fragment perms: uid=%d mode=%s", ino.UID, ino.Mode)
	}
	shadowIno, err := fs.Lookup(vfs.RootCred, ShadowsDir+"/alice")
	if err != nil || shadowIno.UID != 1000 {
		t.Fatalf("shadow fragment: %+v %v", shadowIno, err)
	}
	groupIno, err := fs.Lookup(vfs.RootCred, GroupsDir+"/ops")
	if err != nil || groupIno.GID != 20 || groupIno.Mode.Perm()&0o777 != 0o660 {
		t.Fatalf("group fragment: %+v %v", groupIno, err)
	}
	// The fragmented shadow hash survives round-tripping.
	data, _ := fs.ReadFile(vfs.RootCred, ShadowsDir+"/alice")
	if !strings.Contains(string(data), "pgalice") {
		t.Fatalf("shadow content: %q", data)
	}

	// Mutate a fragment (as chsh would), then synthesize the legacy
	// files and observe the change.
	newLine := "alice:x:1000:100:Alice:/home/alice:/bin/zsh\n"
	if err := fs.WriteFile(vfs.RootCred, PasswdsDir+"/alice", []byte(newLine), 0o600, 1000, 100); err != nil {
		t.Fatal(err)
	}
	if err := SynthesizeLegacy(fs); err != nil {
		t.Fatal(err)
	}
	db := NewDB(fs)
	u, err := db.LookupUser("alice")
	if err != nil || u.Shell != "/bin/zsh" {
		t.Fatalf("synthesized: %+v %v", u, err)
	}
	// Other users are unharmed.
	if u, _ := db.LookupUser("bob"); u.Shell != "/bin/zsh" && u.Shell == "" {
		t.Fatalf("bob lost: %+v", u)
	}
}

func TestFragmentIdempotent(t *testing.T) {
	fs := newDBFS(t)
	if err := Fragment(fs); err != nil {
		t.Fatal(err)
	}
	// A second fragmentation with identical inputs must not generate
	// watch events (monitord convergence).
	w := fs.Watch(PasswdsDir)
	defer w.Close()
	if err := Fragment(fs); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-w.C:
		t.Fatalf("unexpected event: %+v", ev)
	default:
	}
}

func TestValidatePasswdLine(t *testing.T) {
	good := "alice:x:1000:100:Alice A:/home/alice:/bin/zsh"
	if err := ValidatePasswdLine(good, "alice", 1000, 100); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		line string
		name string
		uid  int
	}{
		{"eve:x:1000:100:::/bin/sh", "alice", 1000},                      // renames
		{"alice:x:0:100:::/bin/sh", "alice", 1000},                       // uid change
		{"alice:x:1000:100:::/bin/sh\nx:x:0:0:::/bin/sh", "alice", 1000}, // two records
		{"alice:x:1000", "alice", 1000},                                  // malformed
	}
	for _, c := range cases {
		if err := ValidatePasswdLine(c.line, c.name, c.uid, 100); err == nil {
			t.Errorf("accepted %q", c.line)
		}
	}
}
