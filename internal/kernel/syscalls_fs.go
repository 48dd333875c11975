package kernel

import (
	"sync"

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

// FileDesc is an open file description. Ino and Pos change under mu,
// which, like Linux's f_pos_lock, a read or write through the
// description holds throughout, and which a machine clone's copy takes.
type FileDesc struct {
	mu          sync.Mutex
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

// openFile is the one open decision, which Open, ReadFile, WriteFile and
// AppendFile share. It resolves path with the trailing-slash rule. A
// missing file with O_CREAT is put to the FileOpen hook before it exists,
// as Linux asks security_path_mknod, so a denied create leaves nothing
// behind, and is then created, with no further check. An existing file
// passes the directory rule, a read-only mount and DAC (vfs.MayOpen) and
// then the hook. It returns the cleaned path, the inode, and whether the
// open created it.
func (k *Kernel) openFile(t *Task, creds *Credentials, path string, flags int) (string, *vfs.Inode, bool, error) {
	clean, ino, err := k.lookupPath(t, creds, path)
	if errno.Is(err, errno.ENOENT) && flags&O_CREAT != 0 {
		if vfs.NamesDir(path) {
			return "", nil, false, errno.EISDIR
		}
		req := lsm.OpenRequest{Path: clean, Write: true, OwnerUID: creds.FUID, Mode: uint32(vfs.TypeRegular | 0o644)}
		if err := k.fileOpenHook(t, req, nil); err != nil {
			return "", nil, false, err
		}
		ino, err = k.FS.Create(creds, clean, 0o644, creds.FUID, creds.FGID)
		return clean, ino, err == nil, err
	}
	if err != nil {
		return "", nil, false, err
	}
	// O_TRUNC asks for write permission, as Linux adds MAY_WRITE for it;
	// O_APPEND alone asks for none.
	write := flags&(O_WRONLY|O_RDWR|O_TRUNC) != 0
	var want int
	if write {
		want = vfs.MayWrite
	}
	if flags&O_RDWR != 0 || flags&0x3 == O_RDONLY {
		want |= vfs.MayRead
	}
	dacErr, err := k.FS.MayOpen(creds, ino, want)
	if err != nil {
		return "", nil, false, err
	}
	req := lsm.OpenRequest{Path: clean, Write: write, OwnerUID: ino.UID, Mode: uint32(ino.Mode)}
	return clean, ino, false, k.fileOpenHook(t, req, dacErr)
}

// fileOpenHook consults the LSM FileOpen hook on req, combining its
// decision with dacErr, the DAC outcome: Deny overrides a DAC success,
// and Grant overrides a DAC failure of a read only.
func (k *Kernel) fileOpenHook(t *Task, req lsm.OpenRequest, dacErr error) error {
	req.DACAllowed = dacErr == nil
	dec, err := k.LSM.FileOpen(t, req)
	switch {
	case dec == lsm.Deny:
		k.Auditf("open denied by lsm: pid=%d uid=%d path=%s", t.PID(), t.UID(), req.Path)
		return denyErr(err, errno.EACCES)
	case dec == lsm.Grant && !req.Write:
		return nil
	}
	return dacErr
}

// Open opens path and installs a descriptor in the task's fd table.
func (k *Kernel) Open(t *Task, path string, flags int) (fd int, err error) {
	tok, err := k.enter(t, SysOpen)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return -1, err
	}
	creds := t.credsRef()
	clean, ino, created, err := k.openFile(t, creds, path, flags)
	if err != nil {
		return -1, err
	}
	// As on Linux, O_TRUNC empties only a regular file that was there
	// before the open; a synthetic file keeps its handlers' state.
	if flags&O_TRUNC != 0 && !created && ino.Mode.IsRegular() && !ino.IsProc() {
		if ino, _, err = k.FS.WriteData(creds, clean, ino, 0, nil, true); err != nil {
			return -1, err
		}
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

// Read reads up to n bytes from the descriptor's position, of a
// synthetic file's rendering as of a file's data, and advances the
// position past them; nil at the end.
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
	f.mu.Lock()
	defer f.mu.Unlock()
	out, err := k.FS.ReadData(t.credsRef(), f.Ino, f.Pos, n)
	f.Pos += len(out)
	return out, err
}

// Write writes data at the descriptor's position (or appends with
// O_APPEND) and moves the position past it. A write to a synthetic file
// goes to its handler and leaves the position where it is.
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
	f.mu.Lock()
	defer f.mu.Unlock()
	off := f.Pos
	if f.Flags&O_APPEND != 0 {
		off = -1
	}
	// A descriptor whose inode is shared with a snapshot is rebound to the
	// private copy, which is anonymous when the path entry was unlinked or
	// replaced since open (open-unlink-write), so the write stays fd-local.
	ino, end, err := k.FS.WriteData(t.credsRef(), f.Path, f.Ino, off, data, false)
	if err != nil {
		return 0, err
	}
	if !ino.IsProc() {
		f.Ino, f.Pos = ino, end
	}
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

// ReadFile is the open(O_RDONLY)+read+close convenience used by the
// utilities, as one syscall.
func (k *Kernel) ReadFile(t *Task, path string) (buf []byte, err error) {
	tok, err := k.enter(t, SysReadFile)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return nil, err
	}
	creds := t.credsRef()
	_, ino, _, err := k.openFile(t, creds, path, O_RDONLY)
	if err != nil {
		return nil, err
	}
	return k.FS.ReadData(creds, ino, 0, -1)
}

// WriteFile is the open(O_WRONLY|O_CREAT|O_TRUNC)+write+close
// convenience, as one syscall: a missing file is created with mode 0644,
// owned by the task's fsuid.
func (k *Kernel) WriteFile(t *Task, path string, data []byte) (err error) {
	tok, err := k.enter(t, SysWriteFile)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	creds := t.credsRef()
	clean, ino, _, err := k.openFile(t, creds, path, O_WRONLY|O_CREAT|O_TRUNC)
	if err == nil {
		_, _, err = k.FS.WriteData(creds, clean, ino, 0, data, true)
	}
	return err
}

// AppendFile is the open(O_WRONLY|O_APPEND)+write+close convenience, as
// one syscall: the file must exist.
func (k *Kernel) AppendFile(t *Task, path string, data []byte) (err error) {
	tok, err := k.enter(t, SysAppendFile)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	creds := t.credsRef()
	clean, ino, _, err := k.openFile(t, creds, path, O_WRONLY|O_APPEND)
	if err == nil {
		_, _, err = k.FS.WriteData(creds, clean, ino, -1, data, false)
	}
	return err
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
