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
// tables cloned from one another share it, and each counts the rule's
// matches on its own tracer.
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

// The trace symbols of the chain and of the verdicts, resolved once.
var (
	symOutput = trace.Intern("OUTPUT")
	symAccept = trace.Intern("ACCEPT")
	symDrop   = trace.Intern("DROP")
)

// verdictSym names a verdict in iptables target style.
func verdictSym(v Verdict) trace.Sym {
	if v == Drop {
		return symDrop
	}
	return symAccept
}

// entry is one of a table's rules with the table's state for it: the
// rule's name as a trace symbol, resolved when the rule is appended, and
// the rule's verdict counter on the table's tracer, which is the rule's
// match count.
type entry struct {
	rule    *Rule
	name    trace.Sym
	verdict trace.CounterRef
}

// Table is the filter table's OUTPUT chain, which is all the Protego
// extension requires. Its policy is ACCEPT: a packet no rule matches
// passes.
type Table struct {
	mu sync.RWMutex
	// rules is only appended to or replaced whole, under mu.
	rules []*entry
	// policyVerdict is the policy's counter on the tracer.
	policyVerdict trace.CounterRef

	// tracer, when set, receives one verdict event per filtered packet.
	// Installed once at kernel construction, before packet traffic starts.
	tracer *trace.Tracer
}

// NewTable creates an empty OUTPUT chain.
func NewTable() *Table { return &Table{} }

// SetTracer installs the trace sink for packet verdicts. Must be called
// before the table sees packet traffic (the kernel does it at boot).
func (t *Table) SetTracer(tr *trace.Tracer) {
	t.tracer = tr
}

// outputChain refuses any chain but OUTPUT.
func outputChain(chain string) error {
	if chain != "OUTPUT" {
		return fmt.Errorf("netfilter: no chain %q: %w", chain, errno.ENOENT)
	}
	return nil
}

// Append adds a rule to the end of chain.
func (t *Table) Append(chain string, r *Rule) error {
	if err := outputChain(chain); err != nil {
		return err
	}
	e := &entry{rule: r, name: trace.Intern(r.Name)}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rules = append(t.rules, e)
	return nil
}

// Flush removes all rules from chain.
func (t *Table) Flush(chain string) error {
	if err := outputChain(chain); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rules = nil
	return nil
}

// Output implements netstack.OutputFilter: the rules are evaluated in
// order, like an iptables chain, and the first matching rule's verdict
// applies; otherwise the ACCEPT policy.
func (t *Table) Output(pkt *netstack.Packet) Verdict {
	t.mu.RLock()
	rules := t.rules
	t.mu.RUnlock()
	for _, e := range rules {
		if e.rule.matches(pkt) {
			t.tracer.NetfilterVerdictRef(&e.verdict, symOutput, e.name, verdictSym(e.rule.Verdict), pkt.SenderUID)
			return e.rule.Verdict
		}
	}
	t.tracer.NetfilterVerdictRef(&t.policyVerdict, symOutput, 0, symAccept, pkt.SenderUID)
	return Accept
}

// List renders the table in iptables -S style.
func (t *Table) List() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	b.WriteString("-P OUTPUT ACCEPT\n")
	for _, e := range t.rules {
		b.WriteString(e.rule.String())
		b.WriteByte('\n')
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
