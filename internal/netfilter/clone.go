package netfilter

// Clone returns a copy of the table for machine snapshots. Rules are
// definitions that never change once appended, so the copy shares them,
// the traceroute port list included, and their name symbols; it holds its
// own rule list, so an Append or Flush on either table leaves the other's
// alone, and its own verdict counter refs, which start unbound (per-clone
// match counts start fresh). The tracer is not carried over — the owning
// kernel calls SetTracer with the clone's tracer.
func (t *Table) Clone() *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := &Table{rules: make([]*entry, len(t.rules))}
	entries := make([]entry, len(t.rules))
	for i, e := range t.rules {
		entries[i].rule, entries[i].name = e.rule, e.name
		c.rules[i] = &entries[i]
	}
	return c
}
