package vfs

// DigestTree returns the sum, modulo 2^64, of leaf over every inode of
// the tree, where leaf reporting false leaves out the inode and its whole
// subtree. When leaf returns well-mixed hashes the sum is an
// order-independent digest of the visited inodes, so no directory needs
// sorting.
//
// A sealed inode never changes, and neither does anything below it, so
// it keeps its subtree's sum inline together with the path the sum was
// computed at. A walk that reaches it at that path reuses the sum instead
// of descending; one that reaches it at another path (an ancestor was
// renamed in a clone) recomputes it. On a clone of a frozen image the
// walk therefore visits only the inodes the clone has copied up and their
// direct children.
//
// Because the sums outlive the call, leaf must depend on nothing but the
// path and the inode's own fields, and compute the same function for
// every caller in the process. The path slice is valid only during the
// call. The walk runs with kernel privilege under the FS read lock.
func (fs *FS) DigestTree(leaf func(path []byte, ino *Inode) (uint64, bool)) uint64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	w := digestWalk{leaf: leaf, path: append(make([]byte, 0, 128), '/')}
	return w.visit(fs.root)
}

type digestWalk struct {
	leaf func(path []byte, ino *Inode) (uint64, bool)
	path []byte // absolute path of the inode being visited
}

// visit returns the subtree sum of ino, found at w.path.
func (w *digestWalk) visit(ino *Inode) uint64 {
	sealed := ino.sealed.Load()
	if sealed {
		if d, ok := ino.cachedDigest(w.path); ok {
			return d
		}
	}
	d, ok := w.leaf(w.path, ino)
	if !ok {
		return 0
	}
	n := len(w.path)
	for name, child := range ino.children {
		if n > 1 {
			w.path = append(w.path, '/')
		}
		w.path = append(w.path, name...)
		d += w.visit(child)
		w.path = w.path[:n]
	}
	if sealed {
		ino.cacheDigest(w.path, d)
	}
	return d
}

// cachedDigest returns the subtree sum cached for path, if any. Clones
// sharing the inode may walk it concurrently, hence the lock.
func (ino *Inode) cachedDigest(path []byte) (uint64, bool) {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	return ino.digest, ino.digestPath != "" && ino.digestPath == string(path)
}

func (ino *Inode) cacheDigest(path []byte, d uint64) {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	if ino.digestPath != string(path) {
		ino.digestPath = string(path)
	}
	ino.digest = d
}
