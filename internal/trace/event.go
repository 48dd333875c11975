// Package trace is the simulated kernel's observability substrate, modeled
// on Linux ftrace/perf plus the audit subsystem. Producers — the syscall
// dispatch layer, the LSM hook chain, netfilter, the monitoring daemon,
// and the authentication service — emit structured events into a
// fixed-capacity ring buffer with overwrite-oldest semantics, and feed
// per-syscall / per-hook latency histograms and per-module decision
// counters. An event costs one read of the trace clock (Now) and one
// 64-byte, pointer-free ring slot. Consumers (internal/bench, the
// /proc/trace files, and cmd/protego-trace) read snapshots as Event
// values; nothing in this package blocks a producer.
package trace

import (
	"fmt"
	"strings"
	"time"
)

// Kind classifies an event record.
type Kind uint8

// Event kinds.
const (
	// KindSyscallEnter marks entry into a system call.
	KindSyscallEnter Kind = iota
	// KindSyscallExit marks completion; Latency and Err are populated.
	KindSyscallExit
	// KindLSMDecision records one LSM chain hook evaluation; Module is
	// the module whose decision won the chain combination.
	KindLSMDecision
	// KindNetfilterVerdict records an OUTPUT-chain packet verdict; Module
	// holds the matching rule name (empty when the chain policy applied).
	KindNetfilterVerdict
	// KindMonitordSync records one monitord reparse/push cycle.
	KindMonitordSync
	// KindAuthCheck records an authentication-service check.
	KindAuthCheck
	// KindAudit is a legacy security-audit line (the Kernel.Auditf shim).
	KindAudit
	// KindFaultInject records one deliberate fault injection (site, action,
	// errno, hit count) so a failing sweep run replays exactly.
	KindFaultInject

	numKinds = 8
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSyscallEnter:
		return "sys-enter"
	case KindSyscallExit:
		return "sys-exit"
	case KindLSMDecision:
		return "lsm"
	case KindNetfilterVerdict:
		return "netfilter"
	case KindMonitordSync:
		return "monitord"
	case KindAuthCheck:
		return "auth"
	case KindAudit:
		return "audit"
	case KindFaultInject:
		return "fault"
	default:
		return "invalid"
	}
}

// KindNames lists every kind in declaration order (for stats rendering).
func KindNames() []string {
	out := make([]string, numKinds)
	for i := 0; i < numKinds; i++ {
		out[i] = Kind(i).String()
	}
	return out
}

// Event is one trace record as consumers read it: the ring stores a
// compact form (see record) and a snapshot decodes it. The zero value is
// invalid; Seq is assigned by the ring at emission.
type Event struct {
	// Seq is the global emission sequence number (dense, starts at 0).
	Seq uint64
	// Kind classifies the record.
	Kind Kind
	// Name is the syscall, hook, sync-target, or auth-subject name.
	Name string
	// PID and UID identify the emitting task (0/-1 when not task-bound).
	PID int
	UID int
	// Module tags the deciding LSM module, netfilter rule, or auth
	// mechanism; empty when base policy decided.
	Module string
	// Decision carries the LSM decision, netfilter verdict, or check
	// outcome ("ok"/"fail") as text.
	Decision string
	// Latency is the measured duration (exit, decision, and sync events).
	Latency time.Duration
	// Err is the error the operation returned, if any (a fault's errno
	// by symbolic name).
	Err string
	// Msg carries free-form detail (audit lines, fault hit counts).
	Msg string
	// Time is the emission time: the trace clock's reading (Now), as wall
	// time from the process's trace epoch.
	Time time.Time
}

// String renders the event as a single trace line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8d %-9s", e.Seq, e.Kind)
	if e.Name != "" {
		fmt.Fprintf(&b, " %-12s", e.Name)
	}
	if e.PID != 0 || e.Kind == KindSyscallEnter || e.Kind == KindSyscallExit {
		fmt.Fprintf(&b, " pid=%d uid=%d", e.PID, e.UID)
	}
	if e.Module != "" {
		fmt.Fprintf(&b, " module=%s", e.Module)
	}
	if e.Decision != "" {
		fmt.Fprintf(&b, " decision=%s", e.Decision)
	}
	if e.Latency > 0 {
		fmt.Fprintf(&b, " lat=%s", e.Latency)
	}
	if e.Err != "" {
		fmt.Fprintf(&b, " err=%q", e.Err)
	}
	if e.Msg != "" {
		fmt.Fprintf(&b, " %s", e.Msg)
	}
	return b.String()
}
