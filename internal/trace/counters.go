package trace

import (
	"sync/atomic"
)

// Decision counters are the hottest tracer write path: every LSM module
// consulted on every hook bumps one, as does every netfilter verdict and
// auth check. Each counter is a single atomic.Uint64 beside its key as
// symbols, in its own small allocation that holds no pointer, and the
// tracer keeps them in a slice: the read side walks it, and resolving a
// key scans it comparing integers. A producer on a hot path resolves its
// counters once into a CounterRef and from then on bumps the atomic
// directly, with no key to build, no scan and no lock to take. A new key
// costs one allocation and an append under ctrMu, so a fresh clone's
// tracer pays per key it actually counts, not a copy of every key before
// it.

// counterKey is a counter's (group, hook, module, decision) key.
type counterKey struct {
	hook, module, decision Sym
	group                  keyGroup
}

// counter is one decision counter and its key.
type counter struct {
	n   atomic.Uint64
	key counterKey
}

// public returns the key as Counters reports it; syms is the symbol
// table.
func (k counterKey) public(syms []string) CounterKey {
	hook := syms[k.hook]
	if k.group != groupLSM {
		hook = groupNames[k.group] + ":" + hook
	}
	return CounterKey{Hook: hook, Module: syms[k.module], Decision: syms[k.decision]}
}

// CounterRef caches one decision counter of one tracer for a producer
// that bumps it on every call. The zero value is ready; it resolves on
// first use and stays bound to the tracer it first resolved against. A
// nil *CounterRef caches nothing: every call resolves the key.
type CounterRef struct {
	p atomic.Pointer[atomic.Uint64]
}

// count bumps the counter for key through ref. The key is symbols the
// producer holds or interned for its event already, so resolving it
// interns nothing.
func (tr *Tracer) count(ref *CounterRef, key counterKey) {
	if ref != nil {
		if c := ref.p.Load(); c != nil {
			c.Add(1)
			return
		}
	}
	c := tr.counter(key)
	if ref != nil {
		ref.p.Store(c)
	}
	c.Add(1)
}

// counter returns the counter for key, creating it on first use.
func (tr *Tracer) counter(key counterKey) *atomic.Uint64 {
	tr.ctrMu.RLock()
	c := findCounter(tr.counters, key)
	tr.ctrMu.RUnlock()
	if c != nil {
		return &c.n
	}
	tr.ctrMu.Lock()
	defer tr.ctrMu.Unlock()
	if c = findCounter(tr.counters, key); c == nil {
		c = &counter{key: key}
		tr.counters = append(tr.counters, c)
	}
	return &c.n
}

func findCounter(cs []*counter, key counterKey) *counter {
	for _, c := range cs {
		if c.key == key {
			return c
		}
	}
	return nil
}
