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

// ProcReadFunc produces the dynamic contents of a proc-style file. The
// credential of the reading task is supplied so the handler can refuse
// sensitive reads.
type ProcReadFunc func(c Cred) ([]byte, error)

// ProcWriteFunc consumes data written to a proc-style file — this is how the
// Protego monitoring daemon and administrators configure the in-kernel
// policy, exactly as in the paper's Figure 1.
type ProcWriteFunc func(c Cred, data []byte) error

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

	// Proc handlers make this inode a synthetic file; reads and writes
	// are redirected to the handlers and Data is unused.
	ReadFn  ProcReadFunc
	WriteFn ProcWriteFunc

	// Times, maintained on modification.
	Atime, Mtime, Ctime time.Time

	// mu guards Data for concurrent file IO on the same inode, and the
	// digest cache below.
	mu sync.Mutex

	// sealed marks an inode frozen into a copy-on-write snapshot: it may
	// be shared between file systems and must be privatized (copied up)
	// before any mutation. One-way; private copies start unsealed.
	sealed atomic.Bool

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

// IsProc reports whether the inode is a synthetic (proc-style) file.
func (ino *Inode) IsProc() bool { return ino.ReadFn != nil || ino.WriteFn != nil }

// Size returns the length of the file contents.
func (ino *Inode) Size() int { return len(ino.Data) }

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
