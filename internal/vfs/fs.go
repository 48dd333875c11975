package vfs

import (
	"sync"
	"sync/atomic"
	"time"

	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/faultinject"
)

// FS is an in-memory file system tree with Unix semantics. A single lock
// serializes structural operations; file data reads/writes additionally
// synchronize on the inode so concurrent tasks behave sanely.
type FS struct {
	mu      sync.RWMutex
	root    *Inode
	nextIno uint64

	// dcache caches repeat path resolutions; each hit re-checks the
	// generations its walk recorded (see dcache.go for the precise rules).
	dcache dcache
	// structGen counts structural changes (unlink, rename, mount,
	// umount); cached walks that crossed a symlink check it.
	structGen uint64
	// gen is the file system's generation (see Generation). A mutator
	// moves it once its change is made, inside the lock it holds.
	gen atomic.Uint64

	watches   []*Watch
	watchSeq  int
	mounts    []*Mount
	mountSave map[string][]savedDir

	// faults is the optional fault-injection layer (nil normally). Checks
	// run before fs.mu is taken, so an injected failure can never leak a
	// lock.
	faults atomic.Pointer[faultinject.Injector]

	// cow marks a frozen (or cloned) file system: mutating operations
	// copy sealed inodes up into private ones first (see cow.go). An
	// atomic so the non-COW fast paths read it without fs.mu.
	cow atomic.Bool
	// cowBreaks counts privatized inodes; cowWriteLocked uses it to
	// detect whether a copy-up happened (guarded by fs.mu).
	cowBreaks uint64

	// memo keeps the parses of the policy files this FS holds (see
	// memo.go); a clone falls back to its image's.
	memo Memo

	// procs is the proc table: the handlers of the synthetic files, which
	// a proc inode indexes (see proc.go). Clone copies it. Guarded by mu.
	procs []procHandlers
}

type savedDir struct {
	children map[string]*Inode
	mode     Mode
	uid, gid int
}

// rootCred is an all-powerful credential used internally for setup helpers.
type rootCred struct{}

func (rootCred) FSUID() int            { return 0 }
func (rootCred) FSGID() int            { return 0 }
func (rootCred) InGroup(int) bool      { return true }
func (rootCred) Capable(caps.Cap) bool { return true }

// RootCred is a credential with full privilege, for machine-image
// construction and tests. It must never be handed to simulated userspace.
var RootCred Cred = rootCred{}

// New creates an empty file system whose root directory is owned by root
// with mode 0755.
func New() *FS {
	fs := &FS{nextIno: 1, mountSave: make(map[string][]savedDir)}
	fs.dcache.init()
	fs.root = fs.newInode(TypeDir|0o755, 0, 0)
	fs.root.children = make(map[string]*Inode)
	return fs
}

func (fs *FS) newInode(mode Mode, uid, gid int) *Inode {
	ino := &Inode{
		Ino:   fs.nextIno,
		Mode:  mode,
		UID:   uid,
		GID:   gid,
		Nlink: 1,
		Mtime: time.Now(),
	}
	fs.nextIno++
	if mode.IsDir() {
		ino.children = make(map[string]*Inode)
	}
	return ino
}

// Generation returns a counter that only grows, and that every change to
// the tree, to a file's data, mode or ownership, or to the mount table
// moves. Lookups, dentry-cache fills, copy-ups and reads never move it.
// A caller that reads it before reading that state may keep what it
// derived for as long as the generation reads the same.
func (fs *FS) Generation() uint64 { return fs.gen.Load() }

// moved records a change Generation covers. The caller has made it and
// still holds the lock that guards it.
func (fs *FS) moved() { fs.gen.Add(1) }

// SetFaultInjector installs (or removes, with nil) the fault-injection
// layer for VFS operations. Normally called through
// kernel.SetFaultInjector.
func (fs *FS) SetFaultInjector(in *faultinject.Injector) {
	fs.faults.Store(in)
}

// faultCheck registers a hit at a vfs.* injection site. Nil-injector safe.
func (fs *FS) faultCheck(site string) error {
	return fs.faults.Load().Check(site)
}

// resolve walks path (already cleaned and absolute) checking MayExec on every
// traversed directory. If followLast is true, a trailing symlink is followed.
func (fs *FS) resolve(c Cred, path string, followLast bool, depth int) (*Inode, error) {
	return fs.resolveTrack(c, path, followLast, depth, nil)
}

// resolveTrack is resolve with an optional walk tracker: when tk is
// non-nil it accumulates every directory the walk permission-checked
// (across symlink recursion) so the result can be inserted into the
// dcache with enough state to re-enforce MayExec on later hits.
func (fs *FS) resolveTrack(c Cred, path string, followLast bool, depth int, tk *walkTrack) (*Inode, error) {
	if depth > 16 {
		return nil, errno.ELOOP
	}
	cur := fs.root
	for start := 1; start < len(path); {
		name, end := nextComponent(path, start)
		if !cur.Mode.IsDir() {
			return nil, errno.ENOTDIR
		}
		if err := checkPerm(c, cur, MayExec); err != nil {
			return nil, err
		}
		if tk != nil {
			tk.add(cur)
		}
		next, ok := cur.children[name]
		if !ok {
			return nil, errno.ENOENT
		}
		if next.Mode.IsSymlink() && (end < len(path) || followLast) {
			if tk != nil {
				tk.viaSymlink = true
			}
			return fs.resolveTrack(c, symlinkTarget(path, start, end, next.Data), followLast, depth+1, tk)
		}
		cur = next
		start = end + 1
	}
	return cur, nil
}

// Lookup resolves path to an inode, following symlinks.
func (fs *FS) Lookup(c Cred, path string) (*Inode, error) {
	return fs.LookupClean(c, CleanPath(path, "/"))
}

// LookupClean is Lookup for a path that is already a CleanPath result,
// as the kernel's syscalls have: it skips the cleaning scan.
func (fs *FS) LookupClean(c Cred, clean string) (*Inode, error) {
	if err := fs.faultCheck(faultinject.SiteVFSLookup); err != nil {
		return nil, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.lookupLocked(c, clean, true)
}

// LookupNoFollow resolves path without following a final symlink.
func (fs *FS) LookupNoFollow(c Cred, path string) (*Inode, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.lookupLocked(c, CleanPath(path, "/"), false)
}

// Exists reports whether path resolves for credential c.
func (fs *FS) Exists(c Cred, path string) bool {
	_, err := fs.Lookup(c, path)
	return err == nil
}

// lookupParent resolves the parent directory of path and returns it together
// with the base name. Every caller changes that directory, so one that
// lies in a read-only mount is EROFS, before any permission check, as on
// Linux. Caller holds fs.mu.
func (fs *FS) lookupParent(c Cred, path string) (*Inode, string, error) {
	clean := CleanPath(path, "/")
	dir, base := SplitPath(clean)
	if base == "." {
		return nil, "", errno.EINVAL
	}
	parent, err := fs.lookupLocked(c, dir, true)
	if err != nil {
		return nil, "", err
	}
	if !parent.Mode.IsDir() {
		return nil, "", errno.ENOTDIR
	}
	if err := fs.checkReadOnlyLocked(parent); err != nil {
		return nil, "", err
	}
	return parent, base, nil
}

// Mkdir creates a directory. The parent must grant write+exec.
func (fs *FS) Mkdir(c Cred, path string, mode Mode, uid, gid int) (*Inode, error) {
	if err := fs.faultCheck(faultinject.SiteVFSMkdir); err != nil {
		return nil, err
	}
	return fs.create(c, path, TypeDir|mode.Perm(), uid, gid, nil)
}

// MkdirAll creates path and any missing parents with the given mode.
func (fs *FS) MkdirAll(c Cred, path string, mode Mode, uid, gid int) error {
	clean := CleanPath(path, "/")
	for start := 1; start < len(clean); {
		_, end := nextComponent(clean, start)
		start = end + 1
		cur := clean[:end]
		if fs.Exists(c, cur) {
			continue
		}
		if _, err := fs.Mkdir(c, cur, mode, uid, gid); err != nil && err != errno.EEXIST {
			return err
		}
	}
	return nil
}

// Create makes a new regular file (failing if it exists) and returns its inode.
func (fs *FS) Create(c Cred, path string, mode Mode, uid, gid int) (*Inode, error) {
	if err := fs.faultCheck(faultinject.SiteVFSCreate); err != nil {
		return nil, err
	}
	return fs.create(c, path, TypeRegular|mode.Perm(), uid, gid, nil)
}

// Symlink creates a symbolic link at path pointing to target.
func (fs *FS) Symlink(c Cred, target, path string, uid, gid int) error {
	_, err := fs.create(c, path, TypeSymlink|0o777, uid, gid, func(ino *Inode) { ino.Data = []byte(target) })
	return err
}

// Mknod creates a device node. Linux requires CAP_MKNOD; so do we.
func (fs *FS) Mknod(c Cred, path string, devType DeviceType, major, minor int, mode Mode, uid, gid int) (*Inode, error) {
	if !c.Capable(caps.CAP_MKNOD) {
		return nil, errno.EPERM
	}
	t := TypeChar
	if devType == BlockDevice {
		t = TypeBlock
	}
	return fs.create(c, path, t|mode.Perm(), uid, gid, func(ino *Inode) {
		ino.Major, ino.Minor, ino.DevType = major, minor, devType
	})
}

// create is the one create step of Mkdir, Create, Symlink, Mknod and
// CreateProc. With the parent directory copied up and resolved (EROFS in
// a read-only mount), c must be able to write and search it, and the
// name must be free (EEXIST). Then the inode of the given mode and
// owner, finished by init when it is not nil (under fs.mu), is linked
// there, the directory's mtime and the generation move, and watches see
// a create event.
func (fs *FS) create(c Cred, path string, mode Mode, uid, gid int, init func(*Inode)) (*Inode, error) {
	clean := CleanPath(path, "/")
	fs.mu.Lock()
	fs.cowWriteLocked(clean, false)
	parent, base, err := fs.lookupParent(c, clean)
	if err == nil {
		err = checkPerm(c, parent, MayWrite|MayExec)
	}
	if err == nil && parent.children[base] != nil {
		err = errno.EEXIST
	}
	if err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	ino := fs.newInode(mode, uid, gid)
	if init != nil {
		init(ino)
	}
	parent.children[base] = ino
	parent.Mtime = ino.Mtime
	fs.moved()
	fs.mu.Unlock()
	fs.notify(Event{Op: OpCreate, Path: clean})
	return ino, nil
}

// MayOpen is open(2)'s own check of ino for c, which wants MayRead,
// MayWrite or both, in Linux's order: opening a directory for writing is
// EISDIR, and a file in a read-only mount EROFS, as err; then the DAC
// check, whose refusal comes back apart as dac, so that a security module
// may still decide.
func (fs *FS) MayOpen(c Cred, ino *Inode, want int) (dac, err error) {
	if want&MayWrite != 0 {
		if ino.Mode.IsDir() {
			return nil, errno.EISDIR
		}
		if err := fs.CheckReadOnly(ino); err != nil {
			return nil, err
		}
	}
	return checkPerm(c, ino, want), nil
}

// mayOpen is MayOpen for the trusted calls, where no module decides.
func (fs *FS) mayOpen(c Cred, ino *Inode, want int) error {
	dac, err := fs.MayOpen(c, ino, want)
	if err != nil {
		return err
	}
	return dac
}

// lookupNoFault resolves the cleaned path clean, following a final
// symlink, for the trusted file calls, whose own fault sites stand for
// the lookup.
func (fs *FS) lookupNoFault(c Cred, clean string) (*Inode, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.lookupLocked(c, clean, true)
}

// ReadFile returns the contents of the file at path, enforcing read
// permission along the way. Proc files call their read handler.
func (fs *FS) ReadFile(c Cred, path string) ([]byte, error) {
	if err := fs.faultCheck(faultinject.SiteVFSReadFile); err != nil {
		return nil, err
	}
	ino, err := fs.lookupNoFault(c, CleanPath(path, "/"))
	if err == nil {
		err = fs.mayOpen(c, ino, MayRead)
	}
	if err != nil {
		return nil, err
	}
	return fs.ReadData(c, ino, 0, -1)
}

// WriteFile replaces the contents of the file at path, creating it with the
// given mode if absent. Write permission (or CAP_DAC_OVERRIDE) is required.
func (fs *FS) WriteFile(c Cred, path string, data []byte, mode Mode, uid, gid int) error {
	clean := CleanPath(path, "/")
	ino, err := fs.lookupNoFault(c, clean)
	switch err {
	case errno.ENOENT:
		ino, err = fs.Create(c, clean, mode, uid, gid)
	case nil:
		err = fs.mayOpen(c, ino, MayWrite)
	}
	if err != nil {
		return err
	}
	_, _, err = fs.WriteData(c, clean, ino, 0, data, true)
	return err
}

// AppendFile appends data to the file at path, which must exist.
func (fs *FS) AppendFile(c Cred, path string, data []byte) error {
	clean := CleanPath(path, "/")
	ino, err := fs.lookupNoFault(c, clean)
	if err == nil {
		err = fs.mayOpen(c, ino, MayWrite)
	}
	if err != nil {
		return err
	}
	_, _, err = fs.WriteData(c, clean, ino, -1, data, false)
	return err
}

// Remove unlinks the file at path. The classic sticky-bit rule applies in
// sticky directories such as /tmp. Like unlink(2) on Linux, it refuses a
// directory, empty or not, with EISDIR; a mount point is a directory, so
// no mount is ever removed from under its table entry.
func (fs *FS) Remove(c Cred, path string) error {
	if err := fs.faultCheck(faultinject.SiteVFSRemove); err != nil {
		return err
	}
	clean := CleanPath(path, "/")
	fs.mu.Lock()
	fs.cowWriteLocked(clean, false)
	parent, base, err := fs.lookupParent(c, clean)
	if err != nil {
		fs.mu.Unlock()
		return err
	}
	target, ok := parent.children[base]
	if !ok {
		fs.mu.Unlock()
		return errno.ENOENT
	}
	if err := checkPerm(c, parent, MayWrite|MayExec); err != nil {
		fs.mu.Unlock()
		return err
	}
	if parent.Mode&ModeSticky != 0 && c.FSUID() != 0 &&
		c.FSUID() != target.UID && c.FSUID() != parent.UID && !c.Capable(caps.CAP_FOWNER) {
		fs.mu.Unlock()
		return errno.EPERM
	}
	if target.Mode.IsDir() {
		fs.mu.Unlock()
		return errno.EISDIR
	}
	delete(parent.children, base)
	parent.Mtime = time.Now()
	fs.unlinkedLocked(target)
	fs.moved()
	fs.mu.Unlock()
	fs.notify(Event{Op: OpRemove, Path: clean})
	return nil
}

// Rename moves oldPath to newPath, replacing what newPath names under
// rename(2)'s rules (see replaceErrLocked). A mount point, or a directory
// enclosing one, does not move (EBUSY).
func (fs *FS) Rename(c Cred, oldPath, newPath string) error {
	if err := fs.faultCheck(faultinject.SiteVFSRename); err != nil {
		return err
	}
	oldClean := CleanPath(oldPath, "/")
	newClean := CleanPath(newPath, "/")
	fs.mu.Lock()
	fs.cowWriteLocked(oldClean, false)
	fs.cowWriteLocked(newClean, false)
	oldParent, oldBase, err := fs.lookupParent(c, oldClean)
	if err != nil {
		fs.mu.Unlock()
		return err
	}
	target, ok := oldParent.children[oldBase]
	if !ok {
		fs.mu.Unlock()
		return errno.ENOENT
	}
	newParent, newBase, err := fs.lookupParent(c, newClean)
	if err != nil {
		fs.mu.Unlock()
		return err
	}
	// A directory cannot move into its own subtree: it would become its
	// own descendant and drop out of the tree. newParent is resolved, so
	// a symlink into the subtree is caught too.
	if target.Mode.IsDir() && target.encloses(newParent) {
		fs.mu.Unlock()
		return errno.EINVAL
	}
	if err := checkPerm(c, oldParent, MayWrite|MayExec); err != nil {
		fs.mu.Unlock()
		return err
	}
	if err := checkPerm(c, newParent, MayWrite|MayExec); err != nil {
		fs.mu.Unlock()
		return err
	}
	existing, replacing := newParent.children[newBase]
	if existing == target { // one inode under both names: a no-op
		fs.mu.Unlock()
		return nil
	}
	// The mount table is keyed by path, so moving a mount point, or a
	// directory enclosing one, would orphan its mount: refuse it.
	if fs.mountUnderLocked(oldClean) {
		fs.mu.Unlock()
		return errno.EBUSY
	}
	if replacing {
		if err := fs.replaceErrLocked(target, existing, newClean); err != nil {
			fs.mu.Unlock()
			return err
		}
		fs.unlinkedLocked(existing)
	}
	delete(oldParent.children, oldBase)
	newParent.children[newBase] = target
	now := time.Now()
	oldParent.Mtime = now
	newParent.Mtime = now
	fs.unlinkedLocked(target)
	fs.moved()
	fs.mu.Unlock()
	fs.notify(Event{Op: OpRemove, Path: oldClean})
	fs.notify(Event{Op: OpWrite, Path: newClean})
	return nil
}

// replaceErrLocked applies rename(2)'s rules for moving target over the
// existing entry at path: a file may replace only a file, and a directory
// only an empty directory that is not a mount point. Caller holds fs.mu.
func (fs *FS) replaceErrLocked(target, existing *Inode, path string) error {
	switch {
	case !existing.Mode.IsDir():
		if target.Mode.IsDir() {
			return errno.ENOTDIR
		}
		return nil
	case !target.Mode.IsDir():
		return errno.EISDIR
	case len(existing.children) > 0:
		return errno.ENOTEMPTY
	case fs.mountUnderLocked(path):
		return errno.EBUSY
	}
	return nil
}

// encloses reports whether ino is the directory d or lies in d's subtree.
func (d *Inode) encloses(ino *Inode) bool {
	if d == ino {
		return true
	}
	for _, child := range d.children {
		if child.Mode.IsDir() && child.encloses(ino) {
			return true
		}
	}
	return false
}

// Chmod changes the permission bits. Only the owner or CAP_FOWNER may do so.
// Setting the setgid bit on a file not owned by one of the caller's groups
// silently clears it, as on Linux.
func (fs *FS) Chmod(c Cred, path string, mode Mode) error {
	clean := CleanPath(path, "/")
	ino, err := fs.Lookup(c, clean)
	if err != nil {
		return err
	}
	if err := fs.CheckReadOnly(ino); err != nil {
		return err
	}
	if c.FSUID() != ino.UID && !c.Capable(caps.CAP_FOWNER) {
		return errno.EPERM
	}
	if mode&ModeSetgid != 0 && c.FSGID() != ino.GID && !c.InGroup(ino.GID) && !c.Capable(caps.CAP_FSETID) {
		mode &^= ModeSetgid
	}
	ino = fs.breakSeal(clean, ino)
	fs.mu.Lock()
	// No dcache work: cached walks hold this inode by pointer and re-run
	// MayExec against its current mode on every hit.
	ino.Mode = ino.Mode.Type() | mode.Perm()
	fs.moved()
	fs.mu.Unlock()
	fs.notify(Event{Op: OpChmod, Path: clean})
	return nil
}

// Chown changes ownership; requires CAP_CHOWN (only root may give files
// away, the Linux default). Chown clears setuid/setgid bits.
func (fs *FS) Chown(c Cred, path string, uid, gid int) error {
	clean := CleanPath(path, "/")
	ino, err := fs.Lookup(c, clean)
	if err != nil {
		return err
	}
	if err := fs.CheckReadOnly(ino); err != nil {
		return err
	}
	if uid != ino.UID && !c.Capable(caps.CAP_CHOWN) {
		return errno.EPERM
	}
	if gid != ino.GID && c.FSUID() != ino.UID && !c.Capable(caps.CAP_CHOWN) {
		return errno.EPERM
	}
	ino = fs.breakSeal(clean, ino)
	fs.mu.Lock()
	ino.UID, ino.GID = uid, gid
	if ino.Mode.IsRegular() {
		ino.Mode &^= ModeSetuid | ModeSetgid
	}
	fs.moved()
	fs.mu.Unlock()
	fs.notify(Event{Op: OpChmod, Path: clean})
	return nil
}

// ReadDir lists the entries of the directory at path.
func (fs *FS) ReadDir(c Cred, path string) ([]string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ino, err := fs.lookupLocked(c, CleanPath(path, "/"), true)
	if err != nil {
		return nil, err
	}
	if !ino.Mode.IsDir() {
		return nil, errno.ENOTDIR
	}
	if err := checkPerm(c, ino, MayRead); err != nil {
		return nil, err
	}
	return ino.childNames(), nil
}
