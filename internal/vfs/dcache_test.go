package vfs

import (
	"sync"
	"testing"

	"protego/internal/errno"
)

// dcacheFS builds a small tree with a file reachable through an
// intermediate directory, which the invalidation tests mutate.
func dcacheFS(t *testing.T) *FS {
	t.Helper()
	fs := newTestFS(t)
	if err := fs.MkdirAll(root, "/srv/data/sub", 0o755, 0, 0); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := fs.WriteFile(root, "/srv/data/sub/f", []byte("v1"), 0o644, 0, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	return fs
}

// warm primes the cache for path and asserts the second lookup hits.
func warm(t *testing.T, fs *FS, c Cred, path string) {
	t.Helper()
	if _, err := fs.Lookup(c, path); err != nil {
		t.Fatalf("warm %s: %v", path, err)
	}
	before := fs.DcacheStats().Hits
	if _, err := fs.Lookup(c, path); err != nil {
		t.Fatalf("warm %s: %v", path, err)
	}
	if got := fs.DcacheStats().Hits; got != before+1 {
		t.Fatalf("warm %s: expected a cache hit (hits %d -> %d)", path, before, got)
	}
}

// lookupHit looks path up as root and reports whether the dcache served
// it: each lookup moves exactly one of the hit and miss counters.
func lookupHit(t *testing.T, fs *FS, path string) (bool, error) {
	t.Helper()
	before := fs.DcacheStats()
	_, err := fs.Lookup(root, path)
	after := fs.DcacheStats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses != 1 {
		t.Fatalf("lookup %s: hits +%d, misses +%d, want one of them +1", path, hits, misses)
	}
	return hits == 1, err
}

func TestDcacheHitReturnsSameInode(t *testing.T) {
	fs := dcacheFS(t)
	a, err := fs.Lookup(root, "/srv/data/sub/f")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.Lookup(root, "/srv/data/sub/f")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cached lookup returned a different inode")
	}
	st := fs.DcacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected hits and misses, got %+v", st)
	}
}

func TestDcacheUnlinkInvalidates(t *testing.T) {
	fs := dcacheFS(t)
	for _, p := range []string{"/srv/data/sub/g", "/etc/motd"} {
		if err := fs.WriteFile(root, p, []byte("x"), 0o644, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/srv/data/sub/f", "/srv/data/sub/g", "/etc/motd"} {
		warm(t, fs, root, p)
	}
	if err := fs.Remove(root, "/srv/data/sub/f"); err != nil {
		t.Fatal(err)
	}
	// The unlink stales exactly the removed file's entry: a sibling and
	// an unrelated path still hit.
	for _, p := range []string{"/srv/data/sub/g", "/etc/motd"} {
		if hit, err := lookupHit(t, fs, p); err != nil || !hit {
			t.Fatalf("lookup %s after unlinking a sibling: hit %v, err %v; want a hit", p, hit, err)
		}
	}
	// The stale entry's re-walk fails: the entry is deleted and counted
	// once, and the next lookup finds nothing to drop.
	before := fs.DcacheStats()
	for i := 0; i < 2; i++ {
		if hit, err := lookupHit(t, fs, "/srv/data/sub/f"); err != errno.ENOENT || hit {
			t.Fatalf("lookup after unlink: hit %v, err %v; want a miss with ENOENT", hit, err)
		}
	}
	after := fs.DcacheStats()
	if after.Invalidates != before.Invalidates+1 || after.Entries != before.Entries-1 {
		t.Fatalf("stale entry: invalidates %d -> %d, entries %d -> %d; want +1 and -1",
			before.Invalidates, after.Invalidates, before.Entries, after.Entries)
	}
}

// TestDcacheMutationThroughSymlinkedDir mutates a directory through a
// symlink to it: the entry of the path as resolved must go stale too.
func TestDcacheMutationThroughSymlinkedDir(t *testing.T) {
	cases := []struct {
		name, link string
		mutate     func(fs *FS) error
	}{
		{"remove", "/srv/data/sub", func(fs *FS) error { return fs.Remove(root, "/l/f") }},
		{"rename", "/srv/data", func(fs *FS) error { return fs.Rename(root, "/l/sub", "/srv/moved") }},
		{"mount", "/srv/data", func(fs *FS) error {
			return fs.AttachMount(root, &Mount{Device: "/dev/sdb1", Point: "/l", FSType: "ext4"})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := dcacheFS(t)
			if err := fs.Symlink(root, tc.link, "/l", 0, 0); err != nil {
				t.Fatal(err)
			}
			warm(t, fs, root, "/srv/data/sub/f")
			if err := tc.mutate(fs); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Lookup(root, "/srv/data/sub/f"); err != errno.ENOENT {
				t.Fatalf("lookup of the resolved path: got %v, want ENOENT", err)
			}
		})
	}
}

func TestDcacheRenameOfIntermediateDirInvalidates(t *testing.T) {
	fs := dcacheFS(t)
	warm(t, fs, root, "/srv/data/sub/f")
	if err := fs.Rename(root, "/srv/data", "/srv/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(root, "/srv/data/sub/f"); err != errno.ENOENT {
		t.Fatalf("lookup via old name: got %v, want ENOENT", err)
	}
	if _, err := fs.Lookup(root, "/srv/moved/sub/f"); err != nil {
		t.Fatalf("lookup via new name: %v", err)
	}
}

func TestDcacheChmodOfIntermediateDirReenforced(t *testing.T) {
	fs := dcacheFS(t)
	warm(t, fs, alice, "/srv/data/sub/f")
	// Revoke search permission on the intermediate directory: the warm
	// cache entry must not let alice through.
	if err := fs.Chmod(root, "/srv/data", 0o700); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(alice, "/srv/data/sub/f"); err != errno.EACCES {
		t.Fatalf("lookup after chmod: got %v, want EACCES", err)
	}
	// root still passes.
	if _, err := fs.Lookup(root, "/srv/data/sub/f"); err != nil {
		t.Fatalf("root lookup: %v", err)
	}
}

func TestDcacheHitChecksCurrentCredential(t *testing.T) {
	fs := dcacheFS(t)
	if err := fs.Chmod(root, "/srv/data", 0o700); err != nil {
		t.Fatal(err)
	}
	// Warm the cache as root, then probe as alice: the hit must re-run
	// the MayExec checks with alice's credential and refuse.
	warm(t, fs, root, "/srv/data/sub/f")
	if _, err := fs.Lookup(alice, "/srv/data/sub/f"); err != errno.EACCES {
		t.Fatalf("alice via warm cache: got %v, want EACCES", err)
	}
}

func TestDcacheSymlinkRetarget(t *testing.T) {
	fs := dcacheFS(t)
	if err := fs.WriteFile(root, "/srv/data/other", []byte("v2"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(root, "/srv/data/sub/f", "/srv/link", 0, 0); err != nil {
		t.Fatal(err)
	}
	warm(t, fs, root, "/srv/link")
	// Retarget the link: remove and recreate pointing elsewhere.
	if err := fs.Remove(root, "/srv/link"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(root, "/srv/data/other", "/srv/link", 0, 0); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(root, "/srv/link")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2" {
		t.Fatalf("read via retargeted link: got %q, want %q", data, "v2")
	}
}

func TestDcacheSymlinkEntriesInvalidatedOnAnyMutation(t *testing.T) {
	fs := dcacheFS(t)
	if err := fs.Symlink(root, "/srv/data/sub/f", "/srv/link", 0, 0); err != nil {
		t.Fatal(err)
	}
	warm(t, fs, root, "/srv/link")
	// A structural mutation in an unrelated subtree must still drop the
	// symlink-traversing entry (a symlink can depend on any path).
	if err := fs.Remove(root, "/srv/data/sub/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(root, "/srv/link"); err != errno.ENOENT {
		t.Fatalf("lookup dangling link: got %v, want ENOENT", err)
	}
}

// TestDcacheMountShadowAndUmountRestore checks that a mount and an umount
// each stale what lies beneath the mount point and nothing else: the
// mount point's own entry still hits, its children miss.
func TestDcacheMountShadowAndUmountRestore(t *testing.T) {
	fs := dcacheFS(t)
	warm(t, fs, root, "/srv/data/sub/f")
	warm(t, fs, root, "/srv/data")
	m := &Mount{Device: "/dev/sdb1", Point: "/srv/data", FSType: "ext4"}
	if err := fs.AttachMount(root, m); err != nil {
		t.Fatal(err)
	}
	if hit, err := lookupHit(t, fs, "/srv/data"); err != nil || !hit {
		t.Fatalf("mount point after mount: hit %v, err %v; want a hit", hit, err)
	}
	// The graft emptied the directory: the old contents must not be
	// served from the cache.
	if hit, err := lookupHit(t, fs, "/srv/data/sub/f"); err != errno.ENOENT || hit {
		t.Fatalf("shadowed path after mount: hit %v, err %v; want a miss with ENOENT", hit, err)
	}
	if err := fs.WriteFile(root, "/srv/data/g", []byte("on the mount"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	warm(t, fs, root, "/srv/data/g")
	if _, err := fs.DetachMount(root, "/srv/data"); err != nil {
		t.Fatal(err)
	}
	if hit, err := lookupHit(t, fs, "/srv/data"); err != nil || !hit {
		t.Fatalf("mount point after umount: hit %v, err %v; want a hit", hit, err)
	}
	if hit, err := lookupHit(t, fs, "/srv/data/g"); err != errno.ENOENT || hit {
		t.Fatalf("mounted file after umount: hit %v, err %v; want a miss with ENOENT", hit, err)
	}
	data, err := fs.ReadFile(root, "/srv/data/sub/f")
	if err != nil {
		t.Fatalf("lookup restored path: %v", err)
	}
	if string(data) != "v1" {
		t.Fatalf("restored content: got %q, want %q", data, "v1")
	}
}

func TestDcacheConcurrentLookupsDuringMutation(t *testing.T) {
	fs := dcacheFS(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Both outcomes are legal while the mutator runs; the
				// race detector is the real assertion here.
				_, _ = fs.Lookup(root, "/srv/data/sub/f")
				_, _ = fs.Lookup(alice, "/srv/data/sub")
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := fs.Rename(root, "/srv/data", "/srv/tmp-moved"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename(root, "/srv/tmp-moved", "/srv/data"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Chmod(root, "/srv/data", 0o755); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := fs.Lookup(root, "/srv/data/sub/f"); err != nil {
		t.Fatalf("final lookup: %v", err)
	}
}
