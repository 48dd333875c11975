package vfs

// Copy-on-write snapshots. Freeze seals every inode currently in the
// tree; Clone then produces a new FS that shares the sealed inodes with
// its parent. Both sides privatize ("copy up") the sealed inodes along a
// path before the first mutation, persistent-tree style, so a golden
// image can be stamped into many machines at a tiny fraction of
// the cost of rebuilding one.
//
// Sealing is one-way and race-free by construction: a sealed directory
// only ever holds sealed children (copy-up privatizes parents before
// children, and creating an entry requires a private parent first), so a
// re-Freeze prunes at sealed nodes and never writes to an inode another
// clone can reach.

import (
	"maps"
	"slices"

	"protego/internal/errno"
)

// Freeze seals every inode in the tree — including subtrees stashed by
// AttachMount — and switches the FS into copy-on-write mode. Idempotent:
// re-freezing after private mutations re-seals only the private inodes,
// so repeated Snapshot/Clone cycles work.
func (fs *FS) Freeze() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sealTree(fs.root)
	for _, saves := range fs.mountSave {
		for _, sd := range saves {
			for _, child := range sd.children {
				sealTree(child)
			}
		}
	}
	fs.cow.Store(true)
}

// sealTree marks ino and every descendant sealed, pruning at
// already-sealed nodes (their subtrees are sealed by invariant).
func sealTree(ino *Inode) {
	if ino.sealed.Load() {
		return
	}
	ino.sealed.Store(true)
	for _, child := range ino.children {
		sealTree(child)
	}
}

// Clone returns a new FS sharing this file system's sealed inode tree.
// The FS must be frozen first. The clone starts with a fresh empty
// dcache, no watches, no fault injector, and private copies of the mount
// table, the saved mount-point directories and the proc table; inodes
// stay shared until either side writes, at which point the writer copies
// the affected path up into private inodes. Its parse memo reads this
// one's entries in place and keeps its own apart.
func (fs *FS) Clone() *FS {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	c := &FS{
		root:      fs.root,
		nextIno:   fs.nextIno,
		mountSave: make(map[string][]savedDir, len(fs.mountSave)),
		memo:      Memo{image: &fs.memo},
		procs:     slices.Clone(fs.procs),
	}
	c.cow.Store(true)
	c.dcache.init()
	c.mounts = make([]*Mount, len(fs.mounts))
	for i, m := range fs.mounts {
		mc := *m
		mc.Options = append([]string(nil), m.Options...)
		c.mounts[i] = &mc
	}
	for point, saves := range fs.mountSave {
		cs := make([]savedDir, len(saves))
		for i, sd := range saves {
			cs[i] = savedDir{
				children: maps.Clone(sd.children),
				mode:     sd.mode,
				uid:      sd.uid,
				gid:      sd.gid,
			}
		}
		c.mountSave[point] = cs
	}
	return c
}

// cowCopy returns a private, unsealed shallow copy of the inode.
// Directory children maps are cloned (entries still point at shared
// inodes); file data shares the backing array with capacity clamped to
// length, so an append by either side reallocates instead of scribbling
// on bytes the other can read, and dataShared makes an overwrite copy
// first. Only sealed inodes are copied, and nothing writes a sealed
// inode's fields, so they are read without ino.mu.
func (ino *Inode) cowCopy() *Inode {
	cp := &Inode{
		Ino:     ino.Ino,
		Mode:    ino.Mode,
		UID:     ino.UID,
		GID:     ino.GID,
		Nlink:   ino.Nlink,
		Major:   ino.Major,
		Minor:   ino.Minor,
		DevType: ino.DevType,
		proc:    ino.proc,
		Mtime:   ino.Mtime,
	}
	if ino.children != nil {
		cp.children = maps.Clone(ino.children)
	}
	if ino.Data != nil {
		cp.Data = ino.Data[:len(ino.Data):len(ino.Data)]
		cp.dataShared = true
	}
	return cp
}

// copyUpLocked privatizes every sealed inode along path (cleaned,
// absolute), following intermediate symlinks like resolve but with no
// permission checks — mutation rights are established by the caller's own
// lookup. Returns the now-private inode at path. Caller holds fs.mu
// exclusively.
func (fs *FS) copyUpLocked(path string, followLast bool, depth int) (*Inode, error) {
	if depth > 16 {
		return nil, errno.ELOOP
	}
	if fs.root.sealed.Load() {
		fs.root = fs.root.cowCopy()
		fs.cowBreaks++
	}
	cur := fs.root
	for start := 1; start < len(path); {
		name, end := nextComponent(path, start)
		if !cur.Mode.IsDir() {
			return nil, errno.ENOTDIR
		}
		next, ok := cur.children[name]
		if !ok {
			return nil, errno.ENOENT
		}
		if next.Mode.IsSymlink() && (end < len(path) || followLast) {
			return fs.copyUpLocked(symlinkTarget(path, start, end, next.Data), followLast, depth+1)
		}
		if next.sealed.Load() {
			next = next.cowCopy()
			cur.children[name] = next
			fs.cowBreaks++
		}
		cur = next
		start = end + 1
	}
	return cur, nil
}

// cowWriteLocked prepares path for mutation on a COW file system by
// privatizing the sealed inodes along it. Resolution errors are
// swallowed: the deepest existing prefix gets privatized — exactly what
// creation sites need for the parent directory — and the caller's own
// lookup reports the real error. Any privatization clears the dcache,
// whose cached chains hold the replaced pointers. Caller holds fs.mu
// exclusively. No-op when not in COW mode.
func (fs *FS) cowWriteLocked(path string, followLast bool) {
	if !fs.cow.Load() {
		return
	}
	before := fs.cowBreaks
	_, _ = fs.copyUpLocked(CleanPath(path, "/"), followLast, 0)
	if fs.cowBreaks != before {
		fs.dcache.clear()
	}
}

// breakSeal returns ino, or, when ino is sealed, a private copy to
// change in its place: the one copy-up of a file's data (WriteData), mode
// and owner (Chmod, Chown). path is where the caller reached ino, when it
// opened it or just before. If path still resolves to the same inode, the
// copy-up happens in the tree, so path readers observe the change. If the
// directory entry was removed or now names a different file — the
// classic open-unlink-write tempfile idiom, or a rename over the name —
// the caller instead gets an anonymous private copy: the change stays
// with the caller's descriptor and whatever now occupies path is
// untouched. Either way a sealed inode is never mutated, so the snapshot
// sharers stay pristine.
func (fs *FS) breakSeal(path string, ino *Inode) *Inode {
	if !ino.sealed.Load() {
		return ino
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cow.Load() {
		before := fs.cowBreaks
		nino, err := fs.copyUpLocked(CleanPath(path, "/"), true, 0)
		if fs.cowBreaks != before {
			fs.dcache.clear()
		}
		if err == nil && nino.Ino == ino.Ino {
			return nino
		}
	}
	// The entry is gone or replaced since open (or the FS is somehow not
	// in COW mode): privatize the inode itself, off-tree.
	return ino.cowCopy()
}
