package netfilter

// Clone returns a copy of the table for machine snapshots. Rules are
// definitions that never change once appended, so the copy shares them,
// the traceroute port list included; its chains hold their own rule
// lists, so an Append or Flush on either table leaves the other's alone,
// and their own hit counters and verdict counter refs, which start at
// zero (per-clone match statistics start fresh). The tracer is not
// carried over — the owning kernel calls SetTracer with the clone's
// tracer.
func (t *Table) Clone() *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := &Table{chains: make(map[string]*Chain, len(t.chains))}
	for name, ch := range t.chains {
		n := len(ch.rules)
		nc := &Chain{Name: ch.Name, Policy: ch.Policy, rules: ch.rules[:n:n], stats: make([]*ruleStats, n)}
		stats := make([]ruleStats, n)
		for i := range stats {
			nc.stats[i] = &stats[i]
		}
		c.chains[name] = nc
	}
	return c
}
