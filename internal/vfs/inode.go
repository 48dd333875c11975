package vfs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/faultinject"
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
	// inode (cowCopy), so writeAt must copy it before overwriting bytes.
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
// be copied up before mutation (see FS.breakSeal).
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

// WriteData is the one change of a file's data, which every write
// reaches: a descriptor's write(2), an O_TRUNC open, the kernel's
// WriteFile and AppendFile, and the trusted FS.WriteFile and AppendFile.
// The caller has decided that c may write ino, the file it reached at
// path. A synthetic file hands data to its write handler, and one with
// no write handler is EIO. Otherwise a sealed inode is copied up first
// (see breakSeal); the file is emptied when trunc is set, and data is
// written at byte offset off, or at the end when off is negative, as
// pwrite(2) and an O_APPEND write(2) do; the writer's fsuid may clear
// the setuid and setgid bits (dropSetIDLocked); the mtime and the
// generation move; and watches see a write event for path. It returns
// the inode that now holds the file's data and the offset just past the
// bytes written.
func (fs *FS) WriteData(c Cred, path string, ino *Inode, off int, data []byte, trunc bool) (*Inode, int, error) {
	if err := fs.faultCheck(faultinject.SiteVFSWriteFile); err != nil {
		return ino, off, err
	}
	if ino.IsProc() {
		if _, write := fs.ProcHandlers(ino); write != nil {
			return ino, off, write(c, data)
		}
		return ino, off, errno.EIO
	}
	ino = fs.breakSeal(path, ino)
	ino.mu.Lock()
	if trunc {
		ino.Data, ino.dataShared = nil, false
	}
	if off < 0 {
		off = len(ino.Data)
	}
	ino.writeAt(off, data)
	dropSetIDLocked(c, ino)
	ino.Mtime = time.Now()
	fs.moved()
	ino.mu.Unlock()
	fs.notify(Event{Op: OpWrite, Path: path})
	return ino, off + len(data), nil
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

// ReadData is the one read of a file's contents: up to n bytes (all of
// them when n is negative) from byte offset off, as pread(2) does, of
// ino's data or, for a synthetic file, of its read handler's rendering
// for c; nil at or past the end. A directory with no read handler is
// EISDIR. The caller has decided that c may read ino.
func (fs *FS) ReadData(c Cred, ino *Inode, off, n int) ([]byte, error) {
	if read, _ := fs.ProcHandlers(ino); read != nil {
		out, err := read(c)
		if err != nil || off >= len(out) {
			return nil, err
		}
		return out[off:readEnd(off, n, len(out))], nil
	}
	if ino.Mode.IsDir() {
		return nil, errno.EISDIR
	}
	ino.mu.Lock()
	defer ino.mu.Unlock()
	if off >= len(ino.Data) {
		return nil, nil
	}
	return append([]byte(nil), ino.Data[off:readEnd(off, n, len(ino.Data))]...), nil
}

// readEnd is where a read of n bytes from off stops in size bytes.
func readEnd(off, n, size int) int {
	if n < 0 || n > size-off {
		return size
	}
	return off + n
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
