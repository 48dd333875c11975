package vfs

// Synthetic (proc-style) files. A proc inode holds no handlers, only an
// index into its file system's proc table, and every read or write of one
// looks its handlers up through the FS it came through. Clone copies the
// table, so a cloned machine binds its own kernel objects to the proc
// inodes it shares with its parent (RebindProc) without copying any of
// them up, and a descriptor inherited across the clone reaches the
// clone's handlers, not the parent's.

// ProcReadFunc produces the dynamic contents of a proc-style file. The
// credential of the reading task is supplied so the handler can refuse
// sensitive reads.
type ProcReadFunc func(c Cred) ([]byte, error)

// ProcWriteFunc consumes data written to a proc-style file — this is how the
// Protego monitoring daemon and administrators configure the in-kernel
// policy, exactly as in the paper's Figure 1.
type ProcWriteFunc func(c Cred, data []byte) error

// procHandlers is one proc table entry; at least one handler is set.
type procHandlers struct {
	read  ProcReadFunc
	write ProcWriteFunc
}

// ProcHandlers returns the handlers this file system binds to ino, or
// nils when ino is not a synthetic file. A plain inode costs one field
// test and no lock.
func (fs *FS) ProcHandlers(ino *Inode) (ProcReadFunc, ProcWriteFunc) {
	if ino.proc == 0 {
		return nil, nil
	}
	return fs.procHandlers(ino.proc)
}

// procHandlers is ProcHandlers' locked half, kept apart so that the test
// for a plain inode inlines into every read and write path.
func (fs *FS) procHandlers(proc uint32) (ProcReadFunc, ProcWriteFunc) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	h := fs.procs[proc-1]
	return h.read, h.write
}

// addProcLocked appends an entry to the proc table and returns the index
// an inode stores for it. Caller holds fs.mu exclusively.
func (fs *FS) addProcLocked(read ProcReadFunc, write ProcWriteFunc) uint32 {
	fs.procs = append(fs.procs, procHandlers{read, write})
	return uint32(len(fs.procs))
}

// CreateProc installs a synthetic file with the given read/write handlers.
// Used by the kernel to expose the /proc policy interface of Figure 1.
// With no handler the file is a plain, empty one.
func (fs *FS) CreateProc(path string, mode Mode, read ProcReadFunc, write ProcWriteFunc) (*Inode, error) {
	return fs.create(RootCred, path, TypeRegular|mode.Perm(), 0, 0, func(ino *Inode) {
		if read != nil || write != nil {
			ino.proc = fs.addProcLocked(read, write)
		}
	})
}

// RebindProc binds new handlers to the synthetic file (or directory) at
// path. Machine cloning uses it to point the proc inodes a clone shares
// with its parent at the clone's own kernel objects: only this file
// system's proc table changes, so nothing is copied up. Binding handlers
// to a plain inode, or clearing both of a synthetic one, changes what
// kind of file the inode is: the path is copied up first, so a snapshot
// sharer keeps its own, and the generation moves.
func (fs *FS) RebindProc(path string, read ProcReadFunc, write ProcWriteFunc) error {
	clean := CleanPath(path, "/")
	fs.mu.Lock()
	defer fs.mu.Unlock()
	// A plain walk: rebinding is machine setup, not a lookup worth caching.
	ino, err := fs.resolve(RootCred, clean, true, 0)
	if err != nil {
		return err
	}
	proc := read != nil || write != nil
	if ino.IsProc() == proc {
		if proc {
			fs.procs[ino.proc-1] = procHandlers{read, write}
		}
		return nil
	}
	fs.cowWriteLocked(clean, true)
	if ino, err = fs.resolve(RootCred, clean, true, 0); err != nil {
		return err
	}
	ino.proc = 0
	if proc {
		ino.proc = fs.addProcLocked(read, write)
	}
	fs.moved()
	return nil
}
