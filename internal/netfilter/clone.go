package netfilter

// Clone returns a deep copy of the table for machine snapshots: chains
// and rules are duplicated with zeroed hit counters (per-clone match
// statistics start fresh). The compiled dispatch index is shared — it is
// immutable once built (Append replaces it wholesale on whichever side
// appends), and it only holds rule positions, which are identical in the
// copy. The tracer is not carried over — the owning kernel calls
// SetTracer with the clone's tracer, which also re-registers the
// nfidx.fastpath counter.
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
		nc.idx = ch.idx
		c.chains[name] = nc
	}
	return c
}
