package trace

import (
	"sync"
	"sync/atomic"
)

// Sym is a string's id in the process-wide symbol table. Ring records
// name syscalls, hooks, modules, decisions, rules, sync targets,
// mechanisms and fault sites by symbol, so a record holds no pointer.
// Producers intern from fixed vocabularies (the syscall catalog, hook and
// decision names, module names at registration), so the table stays a
// few hundred entries for the life of the process. The zero Sym is "".
type Sym uint32

// symTable is an append-only list (a Sym indexes it) and a copy-on-write
// index from string to Sym. Readers load either without a lock; writers
// serialize on mu.
type symTable struct {
	mu   sync.Mutex
	list atomic.Pointer[[]string]
	ids  atomic.Pointer[map[string]Sym]
}

// symbols is the one table.
var symbols = func() *symTable {
	t := &symTable{}
	list := []string{""}
	ids := map[string]Sym{}
	t.list.Store(&list)
	t.ids.Store(&ids)
	return t
}()

// Intern returns s's symbol, adding s to the table on first use.
func Intern(s string) Sym {
	if s == "" {
		return 0
	}
	if id, ok := (*symbols.ids.Load())[s]; ok {
		return id
	}
	symbols.mu.Lock()
	defer symbols.mu.Unlock()
	ids := *symbols.ids.Load()
	if id, ok := ids[s]; ok {
		return id
	}
	// Appending past the published length never touches an element a
	// reader can index, so the list may share its backing array.
	list := append(*symbols.list.Load(), s)
	id := Sym(len(list) - 1)
	next := make(map[string]Sym, len(ids)+1)
	for k, v := range ids {
		next[k] = v
	}
	next[s] = id
	symbols.list.Store(&list)
	symbols.ids.Store(&next)
	return id
}

// lookup returns s's symbol if s was interned, adding nothing.
func lookup(s string) (Sym, bool) {
	id, ok := (*symbols.ids.Load())[s]
	return id, ok || s == ""
}

// String returns the interned string.
func (s Sym) String() string { return symbolList()[s] }

// symbolList returns the table as of now, for decoding many records.
func symbolList() []string { return *symbols.list.Load() }
