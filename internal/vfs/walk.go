package vfs

import "sort"

// Walk visits every inode of the tree in depth-first order with children
// sorted by name, calling fn with each absolute path. For directories, fn
// returning false prunes the subtree. The walk runs with kernel privilege
// (no DAC checks) under the FS read lock, so it observes a consistent
// snapshot of the tree structure, and calls fn under the inode's own lock
// as well; it exists for state-fingerprint serializers, which must see
// the whole image regardless of permissions.
func (fs *FS) Walk(fn func(path string, ino *Inode) bool) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	walkLocked("/", fs.root, fn)
}

func walkLocked(path string, ino *Inode, fn func(path string, ino *Inode) bool) {
	ino.mu.Lock() // a private file's data changes under it (FS.WriteData)
	more := fn(path, ino)
	ino.mu.Unlock()
	if !more {
		return
	}
	if !ino.Mode.IsDir() {
		return
	}
	names := make([]string, 0, len(ino.children))
	for name := range ino.children {
		names = append(names, name)
	}
	sort.Strings(names)
	prefix := path
	if prefix != "/" {
		prefix += "/"
	}
	for _, name := range names {
		walkLocked(prefix+name, ino.children[name], fn)
	}
}
