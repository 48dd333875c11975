package vfs

import (
	"hash/fnv"
	"testing"
)

// TestDigestTreeReusesSealedSums: on a clone of a frozen tree the walk
// calls the leaf only for the inodes the clone has copied up, their
// direct children, and sealed subtrees it reaches at a new path, and the
// sum still equals that of a never-frozen tree in the same state.
func TestDigestTreeReusesSealedSums(t *testing.T) {
	build := func() *FS {
		fs := New()
		for _, p := range []string{"/a/b/f1", "/a/f2", "/c/f3", "/skip/f4"} {
			if err := fs.MkdirAll(RootCred, p[:len(p)-3], 0o755, 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(RootCred, p, []byte(p), 0o644, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		return fs
	}
	var visited []string
	leaf := func(path []byte, ino *Inode) (uint64, bool) {
		visited = append(visited, string(path))
		h := fnv.New64a()
		h.Write(path)
		h.Write([]byte{byte(ino.Mode >> 8), byte(ino.Mode), byte(len(ino.Data))})
		return h.Sum64(), string(path) != "/skip"
	}
	digest := func(fs *FS) uint64 {
		visited = visited[:0]
		return fs.DigestTree(leaf)
	}
	// check digests clone, counts the leaf calls that took, and compares
	// the digest with that of fresh, a never-frozen tree in the same state.
	check := func(what string, clone, fresh *FS, wantVisits int) {
		t.Helper()
		got := digest(clone)
		if len(visited) != wantVisits {
			t.Errorf("%s: leaf called at %v, want %d calls", what, visited, wantVisits)
		}
		if want := digest(fresh); got != want {
			t.Errorf("%s: digest %x, never-frozen tree %x", what, got, want)
		}
	}

	golden := build()
	golden.Freeze()
	clone, fresh := golden.Clone(), build()
	check("first walk of the frozen tree", clone, fresh, 8) // all but /skip/f4
	check("second walk", clone, fresh, 0)

	for _, fs := range []*FS{clone, fresh} {
		if err := fs.AppendFile(RootCred, "/a/b/f1", []byte("!")); err != nil {
			t.Fatal(err)
		}
	}
	// Copied up: /, /a, /a/b and /a/b/f1. Of their sealed children,
	// /a/f2 and /c reuse their sums; /skip, left out, is asked again.
	check("after a write", clone, fresh, 5)

	for _, fs := range []*FS{clone, fresh} {
		if err := fs.Rename(RootCred, "/c", "/d"); err != nil {
			t.Fatal(err)
		}
	}
	// The rename copies /c up as /d; /d/f3 is still sealed, but its sum
	// was taken at /c/f3.
	check("after renaming a sealed directory", clone, fresh, 7)
}
