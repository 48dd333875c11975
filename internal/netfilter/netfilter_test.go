package netfilter

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"protego/internal/errno"
	"protego/internal/netstack"
	"protego/internal/trace"
)

func icmpEcho(unpriv bool) *netstack.Packet {
	return &netstack.Packet{
		Proto: netstack.IPPROTO_ICMP, ICMPType: netstack.ICMPEchoRequest,
		FromRaw: true, UnprivRaw: unpriv,
	}
}

func rawTCP(unpriv, spoofed bool) *netstack.Packet {
	return &netstack.Packet{
		Proto: netstack.IPPROTO_TCP, SrcPort: 80, DstPort: 6667,
		FromRaw: true, UnprivRaw: unpriv, SpoofedSource: spoofed,
	}
}

func protegoTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable()
	for _, r := range ProtegoDefaultRules() {
		if err := tbl.Append("OUTPUT", r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestDefaultPolicyAccepts(t *testing.T) {
	tbl := NewTable()
	if v := tbl.Output(rawTCP(true, true)); v != Accept {
		t.Fatal("empty table must accept (policy)")
	}
}

func TestProtegoRulesICMPAllowed(t *testing.T) {
	tbl := protegoTable(t)
	if v := tbl.Output(icmpEcho(true)); v != Accept {
		t.Fatal("unprivileged ICMP echo must pass")
	}
	if v := tbl.Output(icmpEcho(false)); v != Accept {
		t.Fatal("privileged ICMP echo must pass")
	}
}

func TestProtegoRulesDropRawTCP(t *testing.T) {
	tbl := protegoTable(t)
	if v := tbl.Output(rawTCP(true, false)); v != Drop {
		t.Fatal("unprivileged raw TCP must drop")
	}
	// Privileged (CAP_NET_RAW) raw TCP is not the extension's concern,
	// unless spoofed.
	if v := tbl.Output(rawTCP(false, false)); v != Accept {
		t.Fatal("privileged raw TCP passes")
	}
	if v := tbl.Output(rawTCP(false, true)); v != Drop {
		t.Fatal("spoofed raw packets always drop")
	}
}

func TestProtegoRulesTraceroutePorts(t *testing.T) {
	tbl := protegoTable(t)
	probe := &netstack.Packet{
		Proto: netstack.IPPROTO_UDP, DstPort: 33434,
		FromRaw: true, UnprivRaw: true,
	}
	if v := tbl.Output(probe); v != Accept {
		t.Fatal("traceroute probe must pass")
	}
	probe.DstPort = 33600 // outside the probe range
	if v := tbl.Output(probe); v != Drop {
		t.Fatal("non-probe unpriv raw UDP must drop")
	}
}

func TestNonRawTrafficUntouched(t *testing.T) {
	tbl := protegoTable(t)
	normal := &netstack.Packet{Proto: netstack.IPPROTO_TCP, DstPort: 80}
	if v := tbl.Output(normal); v != Accept {
		t.Fatal("ordinary TCP must pass")
	}
}

func TestRuleMatchCounters(t *testing.T) {
	tbl := protegoTable(t)
	tr := trace.New(0)
	tbl.SetTracer(tr)
	_ = tbl.Output(icmpEcho(true))
	_ = tbl.Output(rawTCP(true, false))
	_ = tbl.Output(&netstack.Packet{Proto: netstack.IPPROTO_TCP, DstPort: 80})
	ctrs := tr.Counters()
	for _, key := range []trace.CounterKey{
		{Hook: "netfilter:OUTPUT", Module: "allow-unpriv-icmp-echo", Decision: "ACCEPT"},
		{Hook: "netfilter:OUTPUT", Module: "drop-unpriv-raw-tcp", Decision: "DROP"},
		{Hook: "netfilter:OUTPUT", Module: "(policy)", Decision: "ACCEPT"},
	} {
		if ctrs[key] != 1 {
			t.Errorf("%v = %d, want 1: %v", key, ctrs[key], ctrs)
		}
	}
}

func TestFirstMatchWins(t *testing.T) {
	tbl := NewTable()
	_ = tbl.Append("OUTPUT", &Rule{Name: "first", Proto: AnyProto, Verdict: Drop})
	_ = tbl.Append("OUTPUT", &Rule{Name: "second", Proto: AnyProto, Verdict: Accept})
	if v := tbl.Output(icmpEcho(false)); v != Drop {
		t.Fatal("first rule should win")
	}
}

func TestOutputFirstMatchOrder(t *testing.T) {
	tbl := NewTable()
	// An earlier generic rule must win over a later, more specific one.
	mustAppend := func(r *Rule) {
		t.Helper()
		if err := tbl.Append("OUTPUT", r); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(&Rule{Name: "generic-accept", Proto: AnyProto, Verdict: Accept})
	mustAppend(&Rule{Name: "tcp-80-drop", Proto: netstack.IPPROTO_TCP,
		DstPorts: []int{80}, Verdict: Drop})
	pkt := &netstack.Packet{Proto: netstack.IPPROTO_TCP, DstPort: 80}
	if v := tbl.Output(pkt); v != Accept {
		t.Fatalf("verdict = %v, want Accept (first-match order violated)", v)
	}
}

func TestOutputAfterFlush(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Append("OUTPUT", &Rule{Name: "drop-all", Proto: AnyProto, Verdict: Drop}); err != nil {
		t.Fatal(err)
	}
	pkt := &netstack.Packet{Proto: netstack.IPPROTO_UDP, DstPort: 53}
	if v := tbl.Output(pkt); v != Drop {
		t.Fatalf("before flush: %v", v)
	}
	if err := tbl.Flush("OUTPUT"); err != nil {
		t.Fatal(err)
	}
	if v := tbl.Output(pkt); v != Accept {
		t.Fatalf("after flush: %v, want chain policy Accept", v)
	}
}

func TestFlushAndPolicy(t *testing.T) {
	tbl := protegoTable(t)
	if err := tbl.Flush("OUTPUT"); err != nil {
		t.Fatal(err)
	}
	if v := tbl.Output(rawTCP(true, false)); v != Accept {
		t.Fatal("flushed table accepts")
	}
	if err := tbl.Flush("NOCHAIN"); !errors.Is(err, errno.ENOENT) {
		t.Fatalf("flush of unknown chain: %v, want ENOENT", err)
	}
	if err := tbl.Append("NOCHAIN", &Rule{}); !errors.Is(err, errno.ENOENT) {
		t.Fatalf("append to unknown chain: %v, want ENOENT", err)
	}
}

func TestUIDMatch(t *testing.T) {
	tbl := NewTable()
	_ = tbl.Append("OUTPUT", &Rule{Name: "block-eve", UIDs: []int{1005}, Proto: AnyProto, Verdict: Drop})
	pkt := icmpEcho(false)
	pkt.SenderUID = 1005
	if v := tbl.Output(pkt); v != Drop {
		t.Fatal("uid rule should match")
	}
	pkt.SenderUID = 1000
	if v := tbl.Output(pkt); v != Accept {
		t.Fatal("other uid should pass")
	}
}

func TestListRendering(t *testing.T) {
	tbl := protegoTable(t)
	out := tbl.List()
	if !strings.Contains(out, "-P OUTPUT ACCEPT") {
		t.Fatalf("missing policy line: %q", out)
	}
	if !strings.Contains(out, "-m unprivraw") || !strings.Contains(out, "-j DROP") {
		t.Fatalf("missing rule rendering: %q", out)
	}
	if !strings.Contains(out, "# drop-spoofed-raw") {
		t.Fatalf("missing rule name: %q", out)
	}
}

func TestRulesSnapshot(t *testing.T) {
	tbl := protegoTable(t)
	lines := strings.Split(strings.TrimSuffix(tbl.List(), "\n"), "\n")
	if len(lines) != 1+len(ProtegoDefaultRules()) {
		t.Fatalf("listing has %d lines, want the policy and %d rules:\n%s",
			len(lines), len(ProtegoDefaultRules()), tbl.List())
	}
	for i, r := range ProtegoDefaultRules() {
		if lines[1+i] != r.String() {
			t.Errorf("line %d = %q, want %q", 1+i, lines[1+i], r.String())
		}
	}
}

// Property: a packet that is not raw is never dropped by the Protego
// default rules — the "applications that do not use any privileged
// functionality" guarantee underlying Table 5.
func TestNonRawNeverDroppedProperty(t *testing.T) {
	tbl := protegoTable(t)
	f := func(proto uint8, srcPort, dstPort uint16, icmpType uint8, uid uint16) bool {
		pkt := &netstack.Packet{
			Proto:     int(proto),
			SrcPort:   int(srcPort),
			DstPort:   int(dstPort),
			ICMPType:  int(icmpType),
			SenderUID: int(uid),
		}
		return tbl.Output(pkt) == Accept
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: spoofed raw packets are always dropped by the default rules,
// whatever their other fields.
func TestSpoofedAlwaysDroppedProperty(t *testing.T) {
	tbl := protegoTable(t)
	f := func(proto uint8, dstPort uint16, unpriv bool) bool {
		pkt := &netstack.Packet{
			Proto:         int(proto),
			DstPort:       int(dstPort),
			FromRaw:       true,
			UnprivRaw:     unpriv,
			SpoofedSource: true,
		}
		return tbl.Output(pkt) == Drop
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneSharesRulesKeepsOwnCounters: a clone shares the rule
// definitions, the traceroute port list included, but counts matches on
// its own tracer, and an Append or Flush on it leaves the source's rules
// as they were.
func TestCloneSharesRulesKeepsOwnCounters(t *testing.T) {
	src := protegoTable(t)
	srcTr := trace.New(0)
	src.SetTracer(srcTr)
	_ = src.Output(icmpEcho(true))

	c := src.Clone()
	cTr := trace.New(0)
	c.SetTracer(cTr)
	if len(c.rules) != len(src.rules) {
		t.Fatalf("clone has %d rules, source %d", len(c.rules), len(src.rules))
	}
	for i := range c.rules {
		if c.rules[i].rule != src.rules[i].rule {
			t.Errorf("rule %d (%s) copied, not shared", i, src.rules[i].rule.Name)
		}
	}
	echo := trace.CounterKey{Hook: "netfilter:OUTPUT", Module: "allow-unpriv-icmp-echo", Decision: "ACCEPT"}
	if n := cTr.Counters()[echo]; n != 0 {
		t.Fatalf("clone starts with %d matches, want 0", n)
	}
	_ = c.Output(icmpEcho(true))
	_ = c.Output(icmpEcho(true))
	for _, side := range []struct {
		name string
		tr   *trace.Tracer
		want uint64
	}{{"source", srcTr, 1}, {"clone", cTr, 2}} {
		if n := side.tr.Counters()[echo]; n != side.want {
			t.Errorf("%s: %d matches on its tracer, want %d", side.name, n, side.want)
		}
	}

	if err := c.Append("OUTPUT", &Rule{Name: "extra", Proto: AnyProto, Verdict: Drop}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("OUTPUT"); err != nil {
		t.Fatal(err)
	}
	if n := len(src.rules); n != len(ProtegoDefaultRules()) {
		t.Fatalf("source has %d rules after the clone's append and flush, want %d", n, len(ProtegoDefaultRules()))
	}
	if v := src.Output(rawTCP(true, false)); v != Drop {
		t.Fatal("source lost its rules to the clone's flush")
	}
}
