package vfs

import (
	"sort"
	"strings"

	"protego/internal/errno"
)

// Mount records one grafted file system, mirroring an /etc/mtab entry.
type Mount struct {
	Device    string   // e.g. /dev/cdrom
	Point     string   // mount point path
	FSType    string   // e.g. iso9660, ext4, vfat
	Options   []string // normalized option list
	ReadOnly  bool
	MountedBy int  // uid of the task that performed the mount
	UserMount bool // true if performed by a non-root uid
}

// AttachMount grafts a fresh file system subtree at the directory `point`,
// saving the directory's previous contents so Detach can restore them. This
// implements the mount(2) semantics that the paper's Figure 1 revolves
// around. Policy is NOT checked here — that is the kernel's (and its LSMs')
// job; the VFS only implements mechanism.
func (fs *FS) AttachMount(c Cred, m *Mount) error {
	clean := CleanPath(m.Point, "/")
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cowWriteLocked(clean, true)
	ino, err := fs.lookupLocked(c, clean, true)
	if err != nil {
		return err
	}
	if !ino.Mode.IsDir() {
		return errno.ENOTDIR
	}
	for _, existing := range fs.mounts {
		if existing.Device == m.Device && m.Device != "none" && m.Device != "tmpfs" {
			return errno.EBUSY // device already mounted
		}
		if existing.Point == clean {
			return errno.EBUSY // something already mounted here (no stacking)
		}
	}
	fs.mountSave[clean] = append(fs.mountSave[clean], savedDir{
		children: ino.children,
		mode:     ino.Mode,
		uid:      ino.UID,
		gid:      ino.GID,
	})
	ino.children = make(map[string]*Inode)
	mcopy := *m
	mcopy.Point = clean
	sort.Strings(mcopy.Options)
	fs.mounts = append(fs.mounts, &mcopy)
	// The graft swapped the mount point's children but not its inode:
	// cached resolutions *of* the mount point stay valid, everything
	// beneath it does not.
	fs.regraftedLocked(ino)
	fs.moved()
	return nil
}

// DetachMount removes the mount at point, restoring the directory's
// pre-mount contents. Returns the removed mount record.
func (fs *FS) DetachMount(c Cred, point string) (*Mount, error) {
	clean := CleanPath(point, "/")
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cowWriteLocked(clean, true)
	idx := -1
	for i, m := range fs.mounts {
		if m.Point == clean {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, errno.EINVAL // not mounted
	}
	ino, err := fs.lookupLocked(c, clean, true)
	if err != nil {
		return nil, err
	}
	saves := fs.mountSave[clean]
	if len(saves) == 0 {
		return nil, errno.EINVAL
	}
	save := saves[len(saves)-1]
	fs.mountSave[clean] = saves[:len(saves)-1]
	ino.children = save.children
	m := fs.mounts[idx]
	fs.mounts = append(fs.mounts[:idx], fs.mounts[idx+1:]...)
	fs.regraftedLocked(ino)
	fs.moved()
	return m, nil
}

// Mounts returns a snapshot of the mount table (most recent last).
func (fs *FS) Mounts() []*Mount {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]*Mount, len(fs.mounts))
	copy(out, fs.mounts)
	return out
}

// MountAt returns the mount whose point is exactly path, if any.
func (fs *FS) MountAt(path string) *Mount {
	clean := CleanPath(path, "/")
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	for _, m := range fs.mounts {
		if m.Point == clean {
			return m
		}
	}
	return nil
}

// mountUnderLocked reports whether a mount point lies at or under path.
// For an empty directory that means path itself is a mount point. Caller
// holds fs.mu.
func (fs *FS) mountUnderLocked(path string) bool {
	for _, m := range fs.mounts {
		if IsUnder(m.Point, path) {
			return true
		}
	}
	return false
}

// CheckReadOnly returns EROFS when ino lies in a read-only mount: what a
// chmod, chown, data write or an open for writing of ino must check first.
func (fs *FS) CheckReadOnly(ino *Inode) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.checkReadOnlyLocked(ino)
}

// checkReadOnlyLocked returns EROFS when ino lies in a read-only mount's
// tree, however the caller's path reached it (a symlink may lead into the
// mount from outside). A mount is grafted onto its mount point's
// directory, which is the root of that tree. Caller holds fs.mu (read or
// write).
func (fs *FS) checkReadOnlyLocked(ino *Inode) error {
	for _, m := range fs.mounts {
		if !m.ReadOnly {
			continue
		}
		if root, err := fs.lookupLocked(RootCred, m.Point, true); err == nil && root.encloses(ino) {
			return errno.EROFS
		}
	}
	return nil
}

// FormatMtab renders the mount table in /etc/mtab style, one mount per line.
func (fs *FS) FormatMtab() string {
	var b strings.Builder
	for _, m := range fs.Mounts() {
		opts := strings.Join(m.Options, ",")
		if opts == "" {
			opts = "defaults"
		}
		b.WriteString(m.Device)
		b.WriteByte(' ')
		b.WriteString(m.Point)
		b.WriteByte(' ')
		b.WriteString(m.FSType)
		b.WriteByte(' ')
		b.WriteString(opts)
		b.WriteString(" 0 0\n")
	}
	return b.String()
}
