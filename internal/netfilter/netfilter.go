// Package netfilter implements the packet-filtering framework the Protego
// prototype extends (≈100 lines of netfilter changes + a 175-line iptables
// extension in the paper). Rules on the OUTPUT chain mediate packets sent
// through raw and packet sockets: Protego lets any user *create* a raw
// socket, but outgoing packets are subject to these rules, so a compromised
// network utility can no longer spoof traffic from other applications'
// sockets (§4.1.1).
package netfilter

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"protego/internal/errno"
	"protego/internal/netstack"
	"protego/internal/trace"
)

// Verdict aliases netstack's filter verdict for rule construction.
type Verdict = netstack.Verdict

// Re-exported verdicts.
const (
	Accept = netstack.Accept
	Drop   = netstack.Drop
)

// AnyProto matches every protocol in a rule.
const AnyProto = -1

// Rule matches packets on the OUTPUT path. Zero-valued match fields are
// wildcards. The UnprivRawOnly field is the paper's netfilter extension:
// such rules consider only packets from raw sockets created without
// CAP_NET_RAW. A rule is a definition only, never changed once appended:
// tables cloned from one another share it, and each keeps the rule's
// match count and verdict counters in its own ruleStats.
type Rule struct {
	Name string

	Proto         int   // AnyProto or IPPROTO_*
	ICMPTypes     []int // nil = any ICMP type (when Proto is ICMP)
	DstPorts      []int // nil = any destination port
	UIDs          []int // nil = any sender uid
	UnprivRawOnly bool  // match only unprivileged raw-socket packets
	RawOnly       bool  // match only raw-socket packets (any privilege)
	SpoofedOnly   bool  // match only packets with a forged source endpoint

	Verdict Verdict
}

// ruleStats is one table's state for one of its rules.
type ruleStats struct {
	// hits counts packets the rule matched: an atomic, so the verdict
	// fast path never write-locks the table.
	hits atomic.Uint64
	// verdicts caches the rule's decision counter on the table's tracer,
	// one per verdict name (see verdictSlot).
	verdicts [2]trace.CounterRef
}

// matches reports whether the rule applies to the packet.
func (r *Rule) matches(pkt *netstack.Packet) bool {
	if r.UnprivRawOnly && !pkt.UnprivRaw {
		return false
	}
	if r.RawOnly && !pkt.FromRaw {
		return false
	}
	if r.SpoofedOnly && !pkt.SpoofedSource {
		return false
	}
	if r.Proto != AnyProto && r.Proto != 0 && pkt.Proto != r.Proto {
		return false
	}
	if len(r.ICMPTypes) > 0 {
		found := false
		for _, t := range r.ICMPTypes {
			if pkt.ICMPType == t {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(r.DstPorts) > 0 {
		found := false
		for _, p := range r.DstPorts {
			if pkt.DstPort == p {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(r.UIDs) > 0 {
		found := false
		for _, u := range r.UIDs {
			if pkt.SenderUID == u {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// String renders the rule in iptables -S style.
func (r *Rule) String() string {
	var b strings.Builder
	b.WriteString("-A OUTPUT")
	switch r.Proto {
	case netstack.IPPROTO_ICMP:
		b.WriteString(" -p icmp")
	case netstack.IPPROTO_TCP:
		b.WriteString(" -p tcp")
	case netstack.IPPROTO_UDP:
		b.WriteString(" -p udp")
	}
	if len(r.ICMPTypes) > 0 {
		b.WriteString(fmt.Sprintf(" --icmp-type %v", r.ICMPTypes))
	}
	if len(r.DstPorts) > 0 {
		b.WriteString(fmt.Sprintf(" --dports %v", r.DstPorts))
	}
	if r.UnprivRawOnly {
		b.WriteString(" -m unprivraw")
	}
	if r.SpoofedOnly {
		b.WriteString(" -m spoofed")
	}
	if r.Verdict == Drop {
		b.WriteString(" -j DROP")
	} else {
		b.WriteString(" -j ACCEPT")
	}
	if r.Name != "" {
		b.WriteString(" # " + r.Name)
	}
	return b.String()
}

// Chain is an ordered rule list with a default policy.
type Chain struct {
	Name   string
	Policy Verdict
	// rules are the definitions, and stats this chain's state for each,
	// index for index. Both are only appended to or replaced whole, under
	// the table's lock.
	rules []*Rule
	stats []*ruleStats
	// policyVerdicts caches the default policy's decision counters, one
	// per verdict name (see verdictSlot).
	policyVerdicts [2]trace.CounterRef
}

// Table is a set of chains; the simulation uses a single "filter" table
// with an OUTPUT chain, which is all the Protego extension requires.
type Table struct {
	mu     sync.RWMutex
	chains map[string]*Chain

	// tracer, when set, receives one verdict event per filtered packet.
	// Installed once at kernel construction, before packet traffic starts.
	tracer *trace.Tracer
}

// NewTable creates a filter table with an empty, accept-by-default OUTPUT
// chain.
func NewTable() *Table {
	t := &Table{
		chains: make(map[string]*Chain),
	}
	t.chains["OUTPUT"] = &Chain{Name: "OUTPUT", Policy: Accept}
	return t
}

// SetTracer installs the trace sink for packet verdicts. Must be called
// before the table sees packet traffic (the kernel does it at boot).
func (t *Table) SetTracer(tr *trace.Tracer) {
	t.tracer = tr
}

// Append adds a rule to the end of chain.
func (t *Table) Append(chain string, r *Rule) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.chains[chain]
	if !ok {
		return fmt.Errorf("netfilter: no chain %q: %w", chain, errno.ENOENT)
	}
	c.rules = append(c.rules, r)
	c.stats = append(c.stats, new(ruleStats))
	return nil
}

// Flush removes all rules from chain.
func (t *Table) Flush(chain string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.chains[chain]
	if !ok {
		return fmt.Errorf("netfilter: no chain %q: %w", chain, errno.ENOENT)
	}
	c.rules, c.stats = nil, nil
	return nil
}

// SetPolicy changes the default verdict of chain.
func (t *Table) SetPolicy(chain string, v Verdict) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.chains[chain]
	if !ok {
		return fmt.Errorf("netfilter: no chain %q: %w", chain, errno.ENOENT)
	}
	c.Policy = v
	return nil
}

// Rules returns a snapshot of chain's rules.
func (t *Table) Rules(chain string) []*Rule {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.chains[chain]
	if !ok {
		return nil
	}
	out := make([]*Rule, len(c.rules))
	copy(out, c.rules)
	return out
}

// Output implements netstack.OutputFilter: the chain's rules are
// evaluated in order, like an iptables chain, and the first matching
// rule's verdict applies; otherwise the chain policy.
func (t *Table) Output(pkt *netstack.Packet) Verdict {
	t.mu.RLock()
	c := t.chains["OUTPUT"]
	rules, stats := c.rules, c.stats
	policy := c.Policy
	t.mu.RUnlock()
	for i, r := range rules {
		if r.matches(pkt) {
			st := stats[i]
			st.hits.Add(1)
			t.tracer.NetfilterVerdictRef(&st.verdicts[verdictSlot(r.Verdict)], "OUTPUT", r.Name, verdictName(r.Verdict), pkt.SenderUID)
			return r.Verdict
		}
	}
	t.tracer.NetfilterVerdictRef(&c.policyVerdicts[verdictSlot(policy)], "OUTPUT", "", verdictName(policy), pkt.SenderUID)
	return policy
}

// TableStats is a point-in-time snapshot of the table's counters.
type TableStats struct {
	// Matched holds every rule's match count by rule name, summed across
	// chains. Counts live beside the chain's rules (per-rule atomics), so
	// they do not survive a Flush of the owning chain.
	Matched map[string]uint64
}

// Stats returns a snapshot of the table's match counters: read one
// rule's count as Stats().Matched["rule-name"].
func (t *Table) Stats() TableStats {
	s := TableStats{Matched: make(map[string]uint64)}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, c := range t.chains {
		for i, r := range c.rules {
			s.Matched[r.Name] += c.stats[i].hits.Load()
		}
	}
	return s
}

// verdictName renders a verdict in iptables target style.
func verdictName(v Verdict) string {
	if v == Drop {
		return "DROP"
	}
	return "ACCEPT"
}

// verdictSlot indexes per-verdict counter refs by verdictName's two names.
func verdictSlot(v Verdict) int {
	if v == Drop {
		return 1
	}
	return 0
}

// List renders the whole table in iptables -S style.
func (t *Table) List() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	for name, c := range t.chains {
		pol := "ACCEPT"
		if c.Policy == Drop {
			pol = "DROP"
		}
		fmt.Fprintf(&b, "-P %s %s\n", name, pol)
		for _, r := range c.rules {
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// ProtegoDefaultRules returns the default OUTPUT ruleset Protego installs
// for unprivileged raw sockets, mined from the studied setuid binaries
// (ping, traceroute, arping, mtr): benign ICMP is allowed; raw packets that
// forge another socket's TCP/UDP source endpoint are dropped; all other
// unprivileged raw TCP/UDP fabrication is dropped. Non-raw traffic is
// untouched.
func ProtegoDefaultRules() []*Rule {
	return []*Rule{
		{
			Name:        "drop-spoofed-raw",
			RawOnly:     true,
			SpoofedOnly: true,
			Proto:       AnyProto,
			Verdict:     Drop,
		},
		{
			Name:          "allow-unpriv-icmp-echo",
			UnprivRawOnly: true,
			Proto:         netstack.IPPROTO_ICMP,
			ICMPTypes:     []int{netstack.ICMPEchoRequest, netstack.ICMPEchoReply},
			Verdict:       Accept,
		},
		{
			Name:          "allow-unpriv-udp-probe",
			UnprivRawOnly: true,
			Proto:         netstack.IPPROTO_UDP,
			DstPorts:      traceroutePorts(),
			Verdict:       Accept,
		},
		{
			Name:          "drop-unpriv-raw-tcp",
			UnprivRawOnly: true,
			Proto:         netstack.IPPROTO_TCP,
			Verdict:       Drop,
		},
		{
			Name:          "drop-unpriv-raw-udp",
			UnprivRawOnly: true,
			Proto:         netstack.IPPROTO_UDP,
			Verdict:       Drop,
		},
		{
			Name:          "drop-unpriv-raw-other",
			UnprivRawOnly: true,
			Proto:         netstack.IPPROTO_RAW,
			Verdict:       Drop,
		},
	}
}

// traceroutePorts returns the classic UDP probe port range used by
// traceroute (33434–33523), which the default policy whitelists.
func traceroutePorts() []int {
	ports := make([]int, 0, 90)
	for p := 33434; p <= 33523; p++ {
		ports = append(ports, p)
	}
	return ports
}
