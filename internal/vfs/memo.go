package vfs

import "sync"

// memoCap bounds the distinct contents a memo keeps per kind. Machines
// cloned from one image share a handful of contents; edits (chfn, passwd,
// fstab and sudoers reloads, mutated images) keep minting new ones, and a
// kind that is full is simply dropped.
const memoCap = 64

// Memo maps the exact bytes of a configuration file to their parse, so
// each distinct content is parsed once however many utilities, reloads and
// /proc writes read it. It keys on the parser's kind and the bytes, never
// on the inode, its length or its mtime: a kernel write through a
// descriptor can change the content while all three stay equal. Read
// errors never reach it; parse errors are kept with their bytes, since the
// same bytes always give the same error. A parse is shared by every caller
// and must never be written.
//
// Every FS owns one (FS.Memo). A clone reads its image's entries in place
// and keeps the entries it adds to itself, so they die with it. The zero
// Memo is empty and ready to use.
type Memo struct {
	image *Memo // the memo of the FS this one was cloned from, or nil

	mu    sync.RWMutex
	kinds map[any]map[string]memoEntry // by *MemoKind, then by content
}

type memoEntry struct {
	v   any
	err error
}

// MemoKind is one parser. A Memo keeps each kind's parses apart, so two
// parsers never share an entry even for equal bytes.
type MemoKind[T any] struct {
	parse func(string) (T, error)
}

// NewMemoKind declares a kind for parse.
func NewMemoKind[T any](parse func(string) (T, error)) *MemoKind[T] {
	return &MemoKind[T]{parse: parse}
}

// Parse returns k's parse of data from m, or from the image m was cloned
// from, parsing and storing it in m only on a miss.
func (k *MemoKind[T]) Parse(m *Memo, data []byte) (T, error) {
	for c := m; c != nil; c = c.image {
		c.mu.RLock()
		e, ok := c.kinds[k][string(data)]
		c.mu.RUnlock()
		if ok {
			return e.v.(T), e.err
		}
	}
	s := string(data)
	v, err := k.parse(s)
	m.mu.Lock()
	byData := m.kinds[k]
	if byData == nil || len(byData) >= memoCap {
		if m.kinds == nil {
			m.kinds = make(map[any]map[string]memoEntry)
		}
		byData = make(map[string]memoEntry)
		m.kinds[k] = byData
	}
	byData[s] = memoEntry{v, err}
	m.mu.Unlock()
	return v, err
}

// Memo returns the file system's parse memo.
func (fs *FS) Memo() *Memo { return &fs.memo }
