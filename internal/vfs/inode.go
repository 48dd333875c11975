package vfs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"protego/internal/caps"
	"protego/internal/errno"
)

// Cred is the view of a task's credentials the VFS needs for discretionary
// access control. It is satisfied by kernel.Credentials; vfs deliberately
// does not import the kernel package.
type Cred interface {
	// FSUID returns the user id used for file system access checks.
	FSUID() int
	// FSGID returns the primary group id used for access checks.
	FSGID() int
	// InGroup reports whether gid is among the supplementary groups.
	InGroup(gid int) bool
	// Capable reports whether the credential carries the given capability
	// in its effective set.
	Capable(c caps.Cap) bool
}

// DeviceType distinguishes character from block devices.
type DeviceType int

// Device types.
const (
	CharDevice DeviceType = iota
	BlockDevice
)

// Inode is a file system object. All field access is serialized through the
// owning FS's lock except where noted.
type Inode struct {
	Ino   uint64
	Mode  Mode
	UID   int
	GID   int
	Nlink int

	// Data holds the contents of regular files and the target of symlinks.
	Data []byte

	// children holds directory entries. Only valid for directories.
	children map[string]*Inode

	// Device identity for device nodes.
	Major, Minor int
	DevType      DeviceType

	// proc makes this inode a synthetic file when non-zero: it is one
	// plus the index of the file's handlers in the proc table of the FS
	// the inode is reached through (see FS.ProcHandlers), where reads and
	// writes are redirected, and Data is unused. The inode holds an index,
	// not the handlers, so clones that share it each bind their own.
	proc uint32

	// Mtime is the last modification time (sudo's timestamp files read
	// it).
	Mtime time.Time

	// mu guards Data and the setuid bits a write clears, for concurrent
	// file IO on the same inode, and the digest cache below.
	mu sync.Mutex

	// dataShared marks Data as possibly sharing its array with another
	// inode (cowCopy), so WriteAt must copy it before overwriting bytes.
	// Staying set after a reallocation only costs one needless copy.
	dataShared bool

	// sealed marks an inode frozen into a copy-on-write snapshot: it may
	// be shared between file systems and must be privatized (copied up)
	// before any mutation. One-way; private copies start unsealed.
	sealed atomic.Bool

	// gen and below are the dentry cache's generation words, guarded by
	// the owning FS's mu and written only on private inodes. gen grows
	// when the inode's directory entry is removed, moved or replaced;
	// below grows when a mount or umount swaps the directory's children
	// but keeps the inode. A cached walk records both and is re-walked
	// once either has moved (see dcache.go). cowCopy starts a copy at
	// zero: a copy-up clears the dcache.
	gen, below uint64

	// digest caches a sealed inode's subtree digest, computed at
	// digestPath (see FS.DigestTree). Private inodes never set it, and
	// cowCopy does not copy it, so the key string is allocated once per
	// frozen inode, not per clone.
	digestPath string
	digest     uint64
}

// Sealed reports whether the inode belongs to a frozen snapshot and must
// be copied up before mutation (see FS.BreakSealInode).
func (ino *Inode) Sealed() bool { return ino.sealed.Load() }

// writeAt writes data at byte offset off, as pwrite(2) does: bytes before
// off+len(data) that already exist are overwritten and the tail is kept,
// a gap past the end reads as zeros, and writing at the end appends in
// place when capacity allows. An array shared with a snapshot is copied
// before any of its bytes change. Caller holds ino.mu; ino is not sealed.
func (ino *Inode) writeAt(off int, data []byte) {
	if off < len(ino.Data) && ino.dataShared {
		ino.Data = append(make([]byte, 0, max(len(ino.Data), off+len(data))), ino.Data...)
		ino.dataShared = false
	}
	for len(ino.Data) < off {
		ino.Data = append(ino.Data, 0)
	}
	n := copy(ino.Data[off:], data)
	ino.Data = append(ino.Data, data[n:]...)
}

// WriteAt writes data into ino, a regular file a descriptor holds, at
// offset off, or at its end when app is set, as pwrite(2) and an O_APPEND
// write(2) do, and returns the offset just past the bytes written. c is
// the writer. ino must not be sealed (see BreakSealInode).
func (fs *FS) WriteAt(c Cred, ino *Inode, off int, data []byte, app bool) int {
	ino.mu.Lock()
	if app {
		off = len(ino.Data)
	}
	ino.writeAt(off, data)
	dropSetIDLocked(c, ino)
	fs.moved()
	ino.mu.Unlock()
	return off + len(data)
}

// Truncate empties ino, a regular file c is opening with O_TRUNC. ino
// must not be sealed (see BreakSealInode).
func (fs *FS) Truncate(c Cred, ino *Inode) {
	ino.mu.Lock()
	ino.Data = nil
	dropSetIDLocked(c, ino)
	fs.moved()
	ino.mu.Unlock()
}

// dropSetIDLocked is the rule every change of a file's data follows, as
// Linux's file_remove_privs: a writer whose fsuid is not 0 clears the
// setuid and setgid bits — one of the classic hardening rules from the
// secure-Unix literature cited in §6. Caller holds ino.mu.
func dropSetIDLocked(c Cred, ino *Inode) {
	if c.FSUID() != 0 && ino.Mode&(ModeSetuid|ModeSetgid) != 0 {
		ino.Mode &^= ModeSetuid | ModeSetgid
	}
}

// ReadAt returns a copy of up to n bytes of the file's data from offset
// off, or nil at or past its end, as pread(2) does.
func (ino *Inode) ReadAt(off, n int) []byte {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	if off >= len(ino.Data) {
		return nil
	}
	out := make([]byte, min(off+n, len(ino.Data))-off)
	copy(out, ino.Data[off:])
	return out
}

// Contents returns a copy of the file's data.
func (ino *Inode) Contents() []byte {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	return append(make([]byte, 0, len(ino.Data)), ino.Data...)
}

// IsProc reports whether the inode is a synthetic (proc-style) file.
func (ino *Inode) IsProc() bool { return ino.proc != 0 }

// childNames returns the sorted names of directory entries.
func (ino *Inode) childNames() []string {
	names := make([]string, 0, len(ino.children))
	for name := range ino.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// accessWant flags for permission checks.
const (
	MayRead  = 4
	MayWrite = 2
	MayExec  = 1
)

// checkPerm performs the classic Unix DAC check of `want` (a bitwise OR of
// MayRead/MayWrite/MayExec) against the inode for credential c, honoring
// CAP_DAC_OVERRIDE and CAP_DAC_READ_SEARCH the way Linux does.
func checkPerm(c Cred, ino *Inode, want int) error {
	mode := ino.Mode
	var granted int
	switch {
	case c.FSUID() == ino.UID:
		granted = int(mode>>6) & 7
	case c.FSGID() == ino.GID || c.InGroup(ino.GID):
		granted = int(mode>>3) & 7
	default:
		granted = int(mode) & 7
	}
	if granted&want == want {
		return nil
	}
	// CAP_DAC_OVERRIDE bypasses rw checks always, and x checks if any
	// execute bit is set or the target is a directory.
	if c.Capable(caps.CAP_DAC_OVERRIDE) {
		if want&MayExec == 0 || mode.IsDir() || mode&0o111 != 0 {
			return nil
		}
	}
	// CAP_DAC_READ_SEARCH bypasses read checks and directory search.
	if c.Capable(caps.CAP_DAC_READ_SEARCH) {
		if want == MayRead || (mode.IsDir() && want&MayWrite == 0) {
			return nil
		}
	}
	return errno.EACCES
}

// CheckAccess exposes the DAC check for LSMs and tests.
func CheckAccess(c Cred, ino *Inode, want int) error { return checkPerm(c, ino, want) }
