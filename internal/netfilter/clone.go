package netfilter

// Clone returns a deep copy of the table for machine snapshots: chains
// and rules are duplicated with zeroed hit counters (per-clone match
// statistics start fresh). The tracer is not carried over — the owning
// kernel calls SetTracer with the clone's tracer.
func (t *Table) Clone() *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := &Table{chains: make(map[string]*Chain, len(t.chains))}
	for name, ch := range t.chains {
		nc := &Chain{Name: ch.Name, Policy: ch.Policy}
		nc.rules = make([]*Rule, len(ch.rules))
		for i, r := range ch.rules {
			nr := &Rule{
				Name:          r.Name,
				Proto:         r.Proto,
				ICMPTypes:     append([]int(nil), r.ICMPTypes...),
				DstPorts:      append([]int(nil), r.DstPorts...),
				UIDs:          append([]int(nil), r.UIDs...),
				UnprivRawOnly: r.UnprivRawOnly,
				RawOnly:       r.RawOnly,
				SpoofedOnly:   r.SpoofedOnly,
				Verdict:       r.Verdict,
			}
			nc.rules[i] = nr
		}
		c.chains[name] = nc
	}
	return c
}
