package accountdb

import "sync"

// memoCap bounds the distinct contents a memo keeps. Machines cloned from
// one image share a handful of contents; edits (chfn, passwd, mutated
// images) keep minting new ones, and a full memo is simply dropped.
const memoCap = 64

// memo maps the exact bytes of an account file to their parse, so each
// distinct content is parsed once per process however many machines,
// clones and DB views read it. It keys on the bytes, never on the inode,
// its length or its mtime: a kernel write through a descriptor can change
// the content while all three stay equal. Read errors never reach it;
// parse errors are kept with their bytes, since the same bytes always give
// the same error. The records are shared by every caller and never
// written, so they must not leave this package: DB returns copies.
type memo[T any] struct {
	mu sync.RWMutex
	m  map[string]memoEntry[T]
}

type memoEntry[T any] struct {
	recs []T
	err  error
}

var (
	passwdMemo memo[User]
	groupMemo  memo[Group]
)

// parse returns parseFn's result for data, parsing only on a miss.
func (c *memo[T]) parse(data []byte, parseFn func(string) ([]T, error)) ([]T, error) {
	c.mu.RLock()
	e, ok := c.m[string(data)]
	c.mu.RUnlock()
	if ok {
		return e.recs, e.err
	}
	s := string(data)
	recs, err := parseFn(s)
	c.mu.Lock()
	if c.m == nil || len(c.m) >= memoCap {
		c.m = make(map[string]memoEntry[T], memoCap)
	}
	c.m[s] = memoEntry[T]{recs, err}
	c.mu.Unlock()
	return recs, err
}
