package kernel

import (
	"protego/internal/errno"
	"protego/internal/lsm"
	"protego/internal/vfs"
)

// Open flags, mirroring fcntl.h.
const (
	O_RDONLY  = 0x0
	O_WRONLY  = 0x1
	O_RDWR    = 0x2
	O_CREAT   = 0x40
	O_TRUNC   = 0x200
	O_APPEND  = 0x400
	O_CLOEXEC = 0x80000
)

// FileDesc is an open file description.
type FileDesc struct {
	Ino         *vfs.Inode
	Path        string
	Flags       int
	Pos         int
	CloseOnExec bool
}

// lookupPath resolves path against t's cwd with creds, t's credentials,
// and returns the cleaned path with its inode. A path that ends in "/" or
// "/." must name a directory, as on Linux; CleanPath drops the suffix, so
// the raw path is checked here.
func (k *Kernel) lookupPath(t *Task, creds *Credentials, path string) (string, *vfs.Inode, error) {
	clean := vfs.CleanPath(path, t.Cwd())
	ino, err := k.FS.LookupClean(creds, clean)
	if err == nil && !ino.Mode.IsDir() && vfs.NamesDir(path) {
		return clean, nil, errno.ENOTDIR
	}
	return clean, ino, err
}

// fileOpenHook consults the LSM FileOpen hook, combining its decision with
// the DAC outcome: Grant overrides a DAC failure, Deny overrides a DAC
// success.
func (k *Kernel) fileOpenHook(t *Task, path string, ino *vfs.Inode, write bool, dacErr error) error {
	req := &lsm.OpenRequest{
		Path:       path,
		Write:      write,
		OwnerUID:   ino.UID,
		Mode:       uint32(ino.Mode),
		DACAllowed: dacErr == nil,
	}
	dec, err := k.LSM.FileOpen(t, req)
	switch dec {
	case lsm.Deny:
		k.Auditf("open denied by lsm: pid=%d uid=%d path=%s", t.PID(), t.UID(), path)
		return denyErr(err, errno.EACCES)
	case lsm.Grant:
		return nil
	default:
		return dacErr
	}
}

// Open opens path and installs a descriptor in the task's fd table.
func (k *Kernel) Open(t *Task, path string, flags int) (fd int, err error) {
	tok, err := k.enter(t, SysOpen)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return -1, err
	}
	creds := t.credsRef()
	clean, ino, err := k.lookupPath(t, creds, path)
	if errno.Is(err, errno.ENOENT) && flags&O_CREAT != 0 {
		if vfs.NamesDir(path) {
			return -1, errno.EISDIR
		}
		ino, err = k.FS.Create(creds, clean, 0o644, creds.FUID, creds.FGID)
		if err != nil {
			return -1, err
		}
	} else if err != nil {
		return -1, err
	}
	// O_TRUNC asks for write permission, as Linux adds MAY_WRITE for it;
	// O_APPEND alone asks for none.
	write := flags&(O_WRONLY|O_RDWR|O_TRUNC) != 0
	if ino.Mode.IsDir() && write {
		return -1, errno.EISDIR
	}
	var want int
	if write {
		if err := k.FS.CheckReadOnly(ino); err != nil {
			return -1, err
		}
		want = vfs.MayWrite
	}
	if flags&O_RDWR != 0 || flags&0x3 == O_RDONLY {
		want |= vfs.MayRead
	}
	dacErr := vfs.CheckAccess(creds, ino, want)
	if err := k.fileOpenHook(t, clean, ino, write, dacErr); err != nil {
		return -1, err
	}
	if flags&O_TRUNC != 0 && ino.Mode.IsRegular() && !ino.IsProc() {
		// A sealed inode is shared with a snapshot: truncate a private
		// copy, never the shared one.
		ino = k.FS.BreakSealInode(clean, ino)
		k.FS.Truncate(creds, ino)
	}
	desc := &FileDesc{
		Ino:         ino,
		Path:        clean,
		Flags:       flags,
		CloseOnExec: flags&O_CLOEXEC != 0,
	}
	t.mu.Lock()
	n := t.nextFD
	t.nextFD++
	t.fds[n] = desc
	t.mu.Unlock()
	return n, nil
}

// fdesc resolves an fd number to its description.
func (t *Task) fdesc(fd int) (*FileDesc, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.fds[fd]
	if !ok {
		return nil, errno.EBADF
	}
	return f, nil
}

// Read reads up to n bytes from the descriptor.
func (k *Kernel) Read(t *Task, fd, n int) (buf []byte, err error) {
	tok, err := k.enter(t, SysRead)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return nil, err
	}
	f, err := t.fdesc(fd)
	if err != nil {
		return nil, err
	}
	if f.Flags&0x3 == O_WRONLY {
		return nil, errno.EBADF
	}
	if read, _ := k.FS.ProcHandlers(f.Ino); read != nil {
		return read(t.credsRef())
	}
	out := f.Ino.ReadAt(f.Pos, n) // nil at EOF
	f.Pos += len(out)
	return out, nil
}

// Write writes data at the descriptor's position (or appends with O_APPEND).
func (k *Kernel) Write(t *Task, fd int, data []byte) (n int, err error) {
	tok, err := k.enter(t, SysWrite)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return 0, err
	}
	f, err := t.fdesc(fd)
	if err != nil {
		return 0, err
	}
	if f.Flags&0x3 == O_RDONLY {
		return 0, errno.EBADF
	}
	if _, write := k.FS.ProcHandlers(f.Ino); write != nil {
		if err := write(t.credsRef(), data); err != nil {
			return 0, err
		}
		return len(data), nil
	}
	if f.Ino.Sealed() {
		// The descriptor's inode is shared with a snapshot; rebind to a
		// private copy before mutating file data. When the path entry was
		// unlinked or replaced since open (open-unlink-write), the copy is
		// anonymous and the write stays fd-local.
		f.Ino = k.FS.BreakSealInode(f.Path, f.Ino)
	}
	f.Pos = k.FS.WriteAt(t.credsRef(), f.Ino, f.Pos, data, f.Flags&O_APPEND != 0)
	return len(data), nil
}

// CloseFD releases a descriptor.
func (k *Kernel) CloseFD(t *Task, fd int) (err error) {
	tok, err := k.enter(t, SysClose)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.fds[fd]; !ok {
		return errno.EBADF
	}
	delete(t.fds, fd)
	return nil
}

// Stat returns the inode at path.
func (k *Kernel) Stat(t *Task, path string) (ino *vfs.Inode, err error) {
	tok, err := k.enter(t, SysStat)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return nil, err
	}
	_, ino, err = k.lookupPath(t, t.credsRef(), path)
	return ino, err
}

// ReadFile is the open+read+close convenience used by the utilities. All
// LSM open mediation applies.
func (k *Kernel) ReadFile(t *Task, path string) (buf []byte, err error) {
	tok, err := k.enter(t, SysReadFile)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return nil, err
	}
	creds := t.credsRef()
	clean, ino, err := k.lookupPath(t, creds, path)
	if err != nil {
		return nil, err
	}
	// A directory with a read handler is a synthetic proc file rendered on
	// read (e.g. /proc/trace); plain directories stay EISDIR.
	read, _ := k.FS.ProcHandlers(ino)
	if ino.Mode.IsDir() && read == nil {
		return nil, errno.EISDIR
	}
	dacErr := vfs.CheckAccess(creds, ino, vfs.MayRead)
	if err := k.fileOpenHook(t, clean, ino, false, dacErr); err != nil {
		return nil, err
	}
	if read != nil {
		return read(creds)
	}
	return ino.Contents(), nil
}

// WriteFile is the open+write+close convenience (creates with mode 0644
// owned by the task's fsuid when absent). LSM open mediation applies, and
// the write is the task's: no module grants a write DAC refuses, and a
// write by a non-root fsuid clears the file's setuid and setgid bits.
func (k *Kernel) WriteFile(t *Task, path string, data []byte) (err error) {
	tok, err := k.enter(t, SysWriteFile)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	creds := t.credsRef()
	clean, ino, err := k.lookupPath(t, creds, path)
	switch {
	case errno.Is(err, errno.ENOENT):
		if vfs.NamesDir(path) {
			return errno.EISDIR
		}
	case err != nil:
		return err
	default:
		dacErr := vfs.CheckAccess(creds, ino, vfs.MayWrite)
		if hookErr := k.fileOpenHook(t, clean, ino, true, dacErr); hookErr != nil {
			return hookErr
		}
		if _, write := k.FS.ProcHandlers(ino); write != nil {
			return write(creds, data)
		}
	}
	return k.FS.WriteFile(creds, clean, data, 0o644, creds.FUID, creds.FGID)
}

// AppendFile appends to an existing file with LSM mediation.
func (k *Kernel) AppendFile(t *Task, path string, data []byte) (err error) {
	tok, err := k.enter(t, SysAppendFile)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	creds := t.credsRef()
	clean, ino, err := k.lookupPath(t, creds, path)
	if err != nil {
		return err
	}
	dacErr := vfs.CheckAccess(creds, ino, vfs.MayWrite)
	if hookErr := k.fileOpenHook(t, clean, ino, true, dacErr); hookErr != nil {
		return hookErr
	}
	return k.FS.AppendFile(creds, clean, data)
}

// Mkdir creates a directory owned by the task's fsuid.
func (k *Kernel) Mkdir(t *Task, path string, mode vfs.Mode) (err error) {
	tok, err := k.enter(t, SysMkdir)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	creds := t.credsRef()
	_, err = k.FS.Mkdir(creds, vfs.CleanPath(path, t.Cwd()), mode, creds.FUID, creds.FGID)
	return err
}

// Unlink removes a file.
func (k *Kernel) Unlink(t *Task, path string) (err error) {
	tok, err := k.enter(t, SysUnlink)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	return k.FS.Remove(t.credsRef(), vfs.CleanPath(path, t.Cwd()))
}

// Rename moves a file. As in rename(2), a name that ends in "/" or "/."
// on either side requires the source to be a directory.
func (k *Kernel) Rename(t *Task, oldPath, newPath string) (err error) {
	tok, err := k.enter(t, SysRename)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	creds := t.credsRef()
	oldClean := vfs.CleanPath(oldPath, t.Cwd())
	if vfs.NamesDir(oldPath) || vfs.NamesDir(newPath) {
		if ino, err := k.FS.LookupNoFollow(creds, oldClean); err == nil && !ino.Mode.IsDir() {
			return errno.ENOTDIR
		}
	}
	return k.FS.Rename(creds, oldClean, vfs.CleanPath(newPath, t.Cwd()))
}

// Chmod changes permission bits.
func (k *Kernel) Chmod(t *Task, path string, mode vfs.Mode) (err error) {
	tok, err := k.enter(t, SysChmod)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	return k.FS.Chmod(t.credsRef(), vfs.CleanPath(path, t.Cwd()), mode)
}

// Chown changes ownership.
func (k *Kernel) Chown(t *Task, path string, uid, gid int) (err error) {
	tok, err := k.enter(t, SysChown)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	return k.FS.Chown(t.credsRef(), vfs.CleanPath(path, t.Cwd()), uid, gid)
}

// ReadDir lists a directory.
func (k *Kernel) ReadDir(t *Task, path string) (names []string, err error) {
	tok, err := k.enter(t, SysReadDir)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return nil, err
	}
	return k.FS.ReadDir(t.credsRef(), vfs.CleanPath(path, t.Cwd()))
}

// Chdir changes the working directory.
func (k *Kernel) Chdir(t *Task, path string) (err error) {
	tok, err := k.enter(t, SysChdir)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	clean := vfs.CleanPath(path, t.Cwd())
	ino, err := k.FS.LookupClean(t.credsRef(), clean)
	if err != nil {
		return err
	}
	if !ino.Mode.IsDir() {
		return errno.ENOTDIR
	}
	if err := vfs.CheckAccess(t.credsRef(), ino, vfs.MayExec); err != nil {
		return err
	}
	t.mu.Lock()
	t.cwd = clean
	t.mu.Unlock()
	return nil
}
