package vfs

import (
	"testing"
)

// frozenPair builds a tiny tree with one file, freezes it, and returns
// the parent FS, a clone, and the clone's (sealed, shared) view of the
// file's inode.
func frozenPair(t *testing.T, path string) (*FS, *FS, *Inode) {
	t.Helper()
	fs := New()
	if err := fs.WriteFile(RootCred, path, []byte("golden"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	fs.Freeze()
	clone := fs.Clone()
	ino, err := clone.Lookup(RootCred, path)
	if err != nil {
		t.Fatal(err)
	}
	if !ino.Sealed() {
		t.Fatal("freshly cloned inode not sealed")
	}
	return fs, clone, ino
}

// TestBreakSealInodeRebinds: while the path still names the same file,
// breaking the seal copies up in the tree, so path readers observe the
// descriptor's writes and the returned inode is the tree's private copy.
func TestBreakSealInodeRebinds(t *testing.T) {
	parent, clone, ino := frozenPair(t, "/f")
	priv := clone.breakSeal("/f", ino)
	if priv.Sealed() {
		t.Fatal("breakSeal returned a sealed inode")
	}
	if priv == ino {
		t.Fatal("breakSeal returned the shared inode itself")
	}
	tree, err := clone.Lookup(RootCred, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if tree != priv {
		t.Fatal("private copy not linked at the original path")
	}
	priv.Data = append(priv.Data, '!')
	if data, _ := parent.ReadFile(RootCred, "/f"); string(data) != "golden" {
		t.Fatalf("write leaked into parent: %q", data)
	}
}

// TestBreakSealInodeUnlinked: the open-unlink-write tempfile idiom. With
// the entry removed, the descriptor must get an anonymous private copy —
// never the still-sealed shared inode, whose mutation would leak into
// the parent and every sibling clone.
func TestBreakSealInodeUnlinked(t *testing.T) {
	parent, clone, ino := frozenPair(t, "/f")
	if err := clone.Remove(RootCred, "/f"); err != nil {
		t.Fatal(err)
	}
	priv := clone.breakSeal("/f", ino)
	if priv.Sealed() {
		t.Fatal("breakSeal returned a sealed inode for an unlinked file")
	}
	if priv == ino {
		t.Fatal("breakSeal returned the shared inode for an unlinked file")
	}
	priv.Data = append(priv.Data, []byte(" secret")...)
	if data, _ := parent.ReadFile(RootCred, "/f"); string(data) != "golden" {
		t.Fatalf("unlinked-fd write leaked into parent: %q", data)
	}
	if ino.Sealed() && string(ino.Data) != "golden" {
		t.Fatalf("sealed shared inode mutated: %q", ino.Data)
	}
}

// TestBreakSealInodeReplaced: when a different file now occupies the
// descriptor's path (remove + recreate, or rename over), the descriptor
// must not rebind to the stranger; its writes stay fd-local.
func TestBreakSealInodeReplaced(t *testing.T) {
	_, clone, ino := frozenPair(t, "/f")
	if err := clone.Remove(RootCred, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := clone.WriteFile(RootCred, "/f", []byte("stranger"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	priv := clone.breakSeal("/f", ino)
	if priv.Sealed() {
		t.Fatal("breakSeal returned a sealed inode")
	}
	if tree, _ := clone.Lookup(RootCred, "/f"); tree == priv {
		t.Fatal("descriptor rebound to the unrelated file now at its path")
	}
	priv.Data = append(priv.Data[:0:0], []byte("fd-local")...)
	if data, _ := clone.ReadFile(RootCred, "/f"); string(data) != "stranger" {
		t.Fatalf("fd write landed on the file now occupying the path: %q", data)
	}
}

// TestRebindProcPerClone: a clone binds its own handlers to a proc file
// it shares with its parent in its own proc table, so the inode stays
// sealed and shared and each side reads its own; clearing both handlers
// turns the clone's file into a plain one, copied up, and moves the
// generation, while the parent's stays synthetic.
func TestRebindProcPerClone(t *testing.T) {
	fs := New()
	text := func(s string) ProcReadFunc { return func(Cred) ([]byte, error) { return []byte(s), nil } }
	if _, err := fs.CreateProc("/knob", 0o644, text("parent"), nil); err != nil {
		t.Fatal(err)
	}
	fs.Freeze()
	clone := fs.Clone()
	shared, err := clone.Lookup(RootCred, "/knob")
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.RebindProc("/knob", text("clone"), nil); err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		name string
		fs   *FS
		want string
	}{{"parent", fs, "parent"}, {"clone", clone, "clone"}} {
		ino, err := side.fs.Lookup(RootCred, "/knob")
		if err != nil {
			t.Fatal(err)
		}
		if ino != shared || !ino.Sealed() {
			t.Errorf("%s: rebinding copied the proc inode up", side.name)
		}
		if got, err := side.fs.ReadFile(RootCred, "/knob"); err != nil || string(got) != side.want {
			t.Errorf("%s reads %q, %v, want %q", side.name, got, err, side.want)
		}
	}

	gen := clone.Generation()
	if err := clone.RebindProc("/knob", nil, nil); err != nil {
		t.Fatal(err)
	}
	ino, err := clone.Lookup(RootCred, "/knob")
	if err != nil {
		t.Fatal(err)
	}
	if ino.IsProc() || ino == shared || clone.Generation() == gen {
		t.Errorf("cleared handlers: proc %v, shared inode %v, generation moved %v; want a plain private copy and a move",
			ino.IsProc(), ino == shared, clone.Generation() != gen)
	}
	if !shared.IsProc() {
		t.Error("the parent's shared inode lost its handlers")
	}
	if got, err := fs.ReadFile(RootCred, "/knob"); err != nil || string(got) != "parent" {
		t.Errorf("parent reads %q, %v after the clone cleared its handlers", got, err)
	}
}
