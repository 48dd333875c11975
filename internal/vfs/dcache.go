package vfs

import (
	"sync"
	"sync/atomic"
)

// maxDcacheEntries bounds the dentry cache. When the cap is reached the
// whole cache is cleared rather than evicted piecemeal: refilling is one
// walk per path, and a wholesale clear keeps the put path branch-free.
const maxDcacheEntries = 4096

// dkey identifies one cached resolution. Lookups that follow a trailing
// symlink and lookups that do not can resolve to different inodes, so the
// follow flag is part of the key.
type dkey struct {
	path   string
	follow bool
}

// stamp is one inode a cached walk depends on, with the generation it
// had when the walk ran.
type stamp struct {
	ino *Inode
	gen uint64
}

// dentry is one cached resolution: the walk's outcome plus everything
// needed to re-validate it and re-enforce permissions on a hit.
// Authorization is deliberately NOT cached — every hit re-runs MayExec
// over the directories the walk permission-checked, with the *current*
// credential against the *current* inode modes, so a cache hit and a
// cold walk always agree, for every credential.
type dentry struct {
	// stamps holds the directories the walk MayExec-checked, in walk
	// order and stamped with their dirGen, then the result, stamped with
	// its gen.
	stamps []stamp
	// structGen is the FS's structural generation at the walk. It is
	// checked only when the walk crossed a symlink: a symlink can make
	// any path depend on any other.
	structGen  uint64
	viaSymlink bool
}

// dcache is the FS's path→dentry cache, the simulated kernel's analogue of
// the Linux VFS dentry cache. Only successful resolutions are cached
// (no negative entries), which is what makes create-type mutations
// invalidation-free: adding a node can never change an existing
// successful walk. Structural mutations never touch the cache either.
// Like Linux's d_seq and rename_lock checks, each hit compares the
// generations its walk recorded with the inodes' current ones (see
// Inode.gen) and re-walks when one has moved: unlinking, renaming or
// replacing an inode stales the walks through it and to it, a mount or
// umount the walks beneath its mount point, and any structural change
// the walks that crossed a symlink. A mutation costs O(1) whatever the
// cache holds, and it stales exactly the walks it changes, whichever
// path spelled it.
//
// The cache has its own lock, always acquired under FS.mu (read or
// write), never the other way around. The generation words are guarded
// by FS.mu itself.
type dcache struct {
	mu      sync.RWMutex
	entries map[dkey]dentry

	hits        atomic.Uint64
	misses      atomic.Uint64
	invalidates atomic.Uint64 // stale entries dropped at lookup
}

// init readies a zero dcache.
func (d *dcache) init() {
	d.entries = make(map[dkey]dentry)
}

// get returns the cached resolution for k, if any.
func (d *dcache) get(k dkey) (dentry, bool) {
	d.mu.RLock()
	ent, ok := d.entries[k]
	d.mu.RUnlock()
	return ent, ok
}

// put stores a successful resolution. Caller holds FS.mu (read suffices:
// structural mutations take FS.mu exclusively, so the stamps cannot move
// between the walk and the insert).
func (d *dcache) put(k dkey, ent dentry) {
	d.mu.Lock()
	if len(d.entries) >= maxDcacheEntries {
		d.entries = make(map[dkey]dentry)
	}
	d.entries[k] = ent
	d.mu.Unlock()
}

// drop deletes the entry for k if it is still the stale one the caller
// found, and counts it, so readers that find one stale entry at once
// count it once between them.
func (d *dcache) drop(k dkey, stale dentry) {
	d.mu.Lock()
	if cur, ok := d.entries[k]; ok && &cur.stamps[0] == &stale.stamps[0] {
		delete(d.entries, k)
		d.invalidates.Add(1)
	}
	d.mu.Unlock()
}

// clear drops everything (COW copy-up).
func (d *dcache) clear() {
	d.mu.Lock()
	clear(d.entries)
	d.mu.Unlock()
}

func (d *dcache) size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// dirGen is the generation a walk through the directory ino depends on:
// that of its own entry and that of what lies beneath it. Both words
// only grow, so their sum moves whenever either does. Caller holds FS.mu.
func (ino *Inode) dirGen() uint64 { return ino.gen + ino.below }

// fresh reports whether the walk ent records would still take the same
// directories to the same result: no inode on it has been unlinked,
// renamed, replaced or mounted over since, and, if the walk crossed a
// symlink, nothing in the file system has. Caller holds FS.mu.
func (ent *dentry) fresh(structGen uint64) bool {
	if ent.viaSymlink && ent.structGen != structGen {
		return false
	}
	last := len(ent.stamps) - 1
	for _, s := range ent.stamps[:last] {
		if s.ino.dirGen() != s.gen {
			return false
		}
	}
	return ent.stamps[last].ino.gen == ent.stamps[last].gen
}

// unlinkedLocked records that ino's directory entry was removed, moved or
// replaced: cached walks through ino and to it go stale. Caller holds
// fs.mu exclusively and has copied ino's path up, so ino is private.
func (fs *FS) unlinkedLocked(ino *Inode) {
	ino.gen++
	fs.structGen++
}

// regraftedLocked records that a mount or umount swapped the children of
// the directory ino: cached walks beneath ino go stale, and walks that
// end at ino stay valid. Caller holds fs.mu exclusively and has copied
// ino's path up, so ino is private.
func (fs *FS) regraftedLocked(ino *Inode) {
	ino.below++
	fs.structGen++
}

// DcacheStats is a snapshot of the dentry-cache counters. Invalidates
// counts stale entries dropped at lookup.
type DcacheStats struct {
	Hits        uint64
	Misses      uint64
	Invalidates uint64
	Entries     int
}

// HitRatio returns hits/(hits+misses), or 0 when the cache is untouched.
func (s DcacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// DcacheStats returns the dentry cache's counters.
func (fs *FS) DcacheStats() DcacheStats {
	d := &fs.dcache
	return DcacheStats{
		Hits:        d.hits.Load(),
		Misses:      d.misses.Load(),
		Invalidates: d.invalidates.Load(),
		Entries:     d.size(),
	}
}

// DcacheCounters calls f with each dentry-cache counter and its name:
// dcache.hit, dcache.miss and dcache.invalidate (stale entries dropped
// at lookup; their re-walks count as misses).
func (fs *FS) DcacheCounters(f func(name string, n *atomic.Uint64)) {
	f("dcache.hit", &fs.dcache.hits)
	f("dcache.miss", &fs.dcache.misses)
	f("dcache.invalidate", &fs.dcache.invalidates)
}

// walkTrack accumulates, across symlink recursion, the directories a
// resolve walk permission-checked, each stamped with its generation, for
// insertion into the dcache. The first directories fill an inline array,
// so a tracked walk allocates nothing until its result is cached.
type walkTrack struct {
	dirs       [8]stamp
	n          int
	more       []stamp // directories past the first len(dirs)
	viaSymlink bool
}

// add appends one permission-checked directory. Caller holds FS.mu.
func (tk *walkTrack) add(dir *Inode) {
	s := stamp{dir, dir.dirGen()}
	if tk.n < len(tk.dirs) {
		tk.dirs[tk.n] = s
		tk.n++
		return
	}
	tk.more = append(tk.more, s)
}

// entry returns the dentry of the walk that reached ino: a copy of the
// directories, in walk order, then ino stamped with its gen. Caller holds
// FS.mu.
func (tk *walkTrack) entry(ino *Inode, structGen uint64) dentry {
	stamps := make([]stamp, 0, tk.n+len(tk.more)+1)
	stamps = append(stamps, tk.dirs[:tk.n]...)
	stamps = append(stamps, tk.more...)
	stamps = append(stamps, stamp{ino, ino.gen})
	return dentry{stamps: stamps, structGen: structGen, viaSymlink: tk.viaSymlink}
}

// lookupLocked resolves clean (an already-cleaned absolute path) through
// the dentry cache. Caller holds FS.mu (read or write). On a fresh hit
// the cached walk's directories are re-checked for MayExec with the
// caller's credential. A stale entry is dropped, and a miss runs the full
// walk and, when successful, inserts it. Failed walks are not cached.
func (fs *FS) lookupLocked(c Cred, clean string, follow bool) (*Inode, error) {
	d := &fs.dcache
	k := dkey{clean, follow}
	if ent, ok := d.get(k); ok {
		if ent.fresh(fs.structGen) {
			d.hits.Add(1)
			last := len(ent.stamps) - 1
			for _, s := range ent.stamps[:last] {
				if err := checkPerm(c, s.ino, MayExec); err != nil {
					return nil, err
				}
			}
			return ent.stamps[last].ino, nil
		}
		d.drop(k, ent)
	}
	d.misses.Add(1)
	var tk walkTrack
	ino, err := fs.resolveTrack(c, clean, follow, 0, &tk)
	if err != nil {
		return nil, err
	}
	d.put(k, tk.entry(ino, fs.structGen))
	return ino, nil
}
