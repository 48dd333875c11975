// Package lsm implements a Linux Security Module-style hook framework for
// the simulated kernel (Wright et al., USENIX Security 2002). The kernel
// invokes every registered module at each mediation point. Unlike stock
// Linux hooks, which are purely restrictive, these hooks carry the Protego
// kernel change (the paper's 415 added lines): at call sites that were
// previously hard-coded capability checks, the kernel now consults the LSM,
// and a module may *grant* an operation the base policy would deny — the
// mount whitelist, bind table, and delegation rules all work this way.
// Modules may equally *deny* operations the base policy would allow, as
// the seccomp module (internal/seccomp) does at syscall entry; the AppArmor
// module (internal/apparmor) loads no profile and has no opinion.
package lsm

import (
	"sync/atomic"
	"time"

	"protego/internal/caps"
	"protego/internal/trace"
)

// Task is the view of a kernel task exposed to security modules. It is
// implemented by kernel.Task; lsm deliberately does not import the kernel
// package (the dependency points the other way, as in Linux).
type Task interface {
	// PID returns the task's process id.
	PID() int
	// UID returns the real user id.
	UID() int
	// EUID returns the effective user id.
	EUID() int
	// GID returns the real group id.
	GID() int
	// EGID returns the effective group id.
	EGID() int
	// Groups returns the supplementary group ids.
	Groups() []int
	// Capable reports whether the task's effective capability set
	// contains c.
	Capable(c caps.Cap) bool
	// BinaryPath returns the path of the binary the task is executing,
	// used by object-based policies that key on (binary, uid) pairs.
	BinaryPath() string
	// SecurityBlob returns module-private state attached to the task
	// under key, or nil. This models the security pointer in task_struct
	// that the Protego kernel uses to track authentication recency and
	// pending setuid-on-exec state.
	SecurityBlob(key string) any
	// SetSecurityBlob attaches module-private state to the task.
	SetSecurityBlob(key string, v any)
	// SyscallFilter returns the task's dedicated syscall-entry slot and
	// whether it has ever been populated. Unlike the keyed blob map the
	// slot is read lock-free — it sits on every syscall's hot path, the
	// way task_struct keeps its seccomp state in a dedicated field rather
	// than behind the security pointer. At most one syscall-mediating
	// module may own the slot; a stored nil is a meaningful value
	// (distinct from never-populated), letting the owner cache "no
	// per-task filter applies".
	SyscallFilter() (v any, populated bool)
	// SetSyscallFilter populates the syscall-entry slot (nil included).
	SetSyscallFilter(v any)
}

// NullFilterSlot is an embeddable no-op implementation of Task's
// syscall-filter slot for Task implementors that never meet a syscall
// mediator (policy-unit fakes in tests). The kernel's task keeps a real
// lock-free slot instead.
type NullFilterSlot struct{}

// SyscallFilter reports a never-populated slot.
func (NullFilterSlot) SyscallFilter() (any, bool) { return nil, false }

// SetSyscallFilter discards the value.
func (NullFilterSlot) SetSyscallFilter(any) {}

// Decision is a module's opinion about an operation.
type Decision int

// Decisions, in increasing precedence for chain combination (Deny always
// dominates).
const (
	// NoOpinion defers to the kernel's base policy (e.g. "requires
	// CAP_SYS_ADMIN").
	NoOpinion Decision = iota
	// Grant permits the operation even where base policy would deny it —
	// the Protego relaxation for whitelisted objects.
	Grant
	// DeferToExec (setuid/setgid only) reports success to the caller but
	// defers the credential change to the next exec, where the (binary,
	// target user) pair is validated — the paper's setuid-on-exec
	// mechanism (§4.3), needed because enforcement spans two syscalls.
	DeferToExec
	// Deny rejects the operation regardless of base policy.
	Deny
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case NoOpinion:
		return "no-opinion"
	case Grant:
		return "grant"
	case DeferToExec:
		return "defer-to-exec"
	case Deny:
		return "deny"
	default:
		return "invalid"
	}
}

// MountRequest carries the arguments of a mount(2) call to the hook. A
// module that grants may rewrite FSType and Options (with a slice of its
// own); the kernel mounts what the request holds after the hook.
type MountRequest struct {
	Device  string
	Point   string
	FSType  string
	Options []string
}

// UmountRequest carries the arguments of umount(2) and what is mounted.
type UmountRequest struct {
	Point  string
	Device string
	FSType string
	// MountedBy is the uid that created the mount.
	MountedBy int
}

// SocketRequest carries the arguments of socket(2).
type SocketRequest struct {
	Family int
	Type   int
	Proto  int
	// MarkUnprivRaw is set by a module that grants an unprivileged raw
	// socket; the kernel then tags the socket so netfilter can subject
	// its traffic to the raw-socket rules.
	MarkUnprivRaw bool
}

// BindRequest carries the arguments of bind(2).
type BindRequest struct {
	Family int
	Type   int
	Proto  int
	Port   int
}

// IoctlRequest describes a device ioctl.
type IoctlRequest struct {
	Path string // device path, e.g. /dev/ppp
	Cmd  uint32
	Arg  any
}

// ExecRequest describes an execve(2). Env may be filtered in place by a
// module (Protego sanitizes the environment across delegated transitions).
type ExecRequest struct {
	Path string
	Argv []string
	Env  map[string]string
	// SetuidBit reports whether the binary carries the setuid bit, and
	// FileUID its owner; modules may veto the privilege elevation.
	SetuidBit bool
	FileUID   int
}

// CredUpdate is returned from ExecCheck when a module wants the kernel to
// apply a credential change at exec time (the deferred half of
// setuid-on-exec). Nil pointers mean "leave unchanged".
type CredUpdate struct {
	UID *int
	GID *int
	// Groups, when non-nil, replaces the supplementary groups (the
	// target user's groups on a delegated transition).
	Groups []int
	// DropGroups clears supplementary groups; ignored when Groups is
	// non-nil.
	DropGroups bool
}

// OpenRequest describes a file open for the FileOpen hook.
type OpenRequest struct {
	Path  string
	Write bool
	// OwnerUID and Mode describe the target inode so modules can apply
	// object-based policy without a VFS dependency.
	OwnerUID int
	Mode     uint32
	// DACAllowed reports whether discretionary access control already
	// admits the open; a Grant decision overrides a DAC failure of a
	// read.
	DACAllowed bool
}

// GroupResolver is an optional module capability: resolving the primary
// gid and the supplementary groups of a uid, so the kernel can establish
// the target's groups when it performs a granted credential transition
// (the task itself is unprivileged afterwards and could not).
type GroupResolver interface {
	ResolveGroups(uid int) (gid int, groups []int, ok bool)
}

// Module is the full set of mediation hooks. Embed Base to get
// no-opinion defaults and override only the hooks a policy needs.
type Module interface {
	// Name identifies the module in logs and /proc output.
	Name() string

	// MountCheck mediates mount(2).
	MountCheck(t Task, req *MountRequest) (Decision, error)
	// UmountCheck mediates umount(2).
	UmountCheck(t Task, req *UmountRequest) (Decision, error)
	// SocketCreate mediates socket(2); raw/packet socket creation by
	// tasks lacking CAP_NET_RAW reaches here on Protego instead of
	// failing outright.
	SocketCreate(t Task, req *SocketRequest) (Decision, error)
	// BindCheck mediates bind(2) to ports below 1024 by callers lacking
	// CAP_NET_BIND_SERVICE.
	BindCheck(t Task, req *BindRequest) (Decision, error)
	// IoctlCheck mediates privileged device ioctls (route updates, modem
	// configuration, dmcrypt metadata).
	IoctlCheck(t Task, req *IoctlRequest) (Decision, error)
	// SetuidCheck mediates setuid(2) transitions base policy would deny.
	SetuidCheck(t Task, targetUID int) (Decision, error)
	// SetgidCheck mediates setgid(2)/newgrp transitions.
	SetgidCheck(t Task, targetGID int) (Decision, error)
	// ExecCheck mediates execve(2); it may veto the exec or return a
	// credential update to apply (completing a deferred setuid).
	ExecCheck(t Task, req *ExecRequest) (*CredUpdate, error)
	// FileOpen mediates opens, and creates before the file exists: Deny
	// blocks a DAC-admitted open, Grant admits a DAC-denied read (e.g.
	// ssh-keysign reading the host key). The request is passed by value,
	// so consulting the hook allocates nothing.
	FileOpen(t Task, req OpenRequest) (Decision, error)
	// TaskSyscall mediates syscall entry itself: the kernel consults it
	// from the single enter() prologue before dispatching any syscall, so
	// a module can enforce a per-task syscall allowlist (seccomp-style).
	// sysno is the kernel.Sysno catalog number, name its trace name; lsm
	// deliberately takes plain values so the dependency keeps pointing
	// kernel -> lsm. Deny surfaces to the caller as ENOSYS. A module that
	// overrides this hook MUST also implement SyscallMediator, or the
	// chain — which pre-filters the hot path down to mediators at
	// registration — will never call it.
	TaskSyscall(t Task, sysno int, name string) (Decision, error)
}

// SyscallMediator marks modules whose TaskSyscall does real work. The
// chain walks only mediators on the per-syscall hot path, so the many
// modules keeping Base's structural no-op cost nothing there — not even
// an interface dispatch per syscall.
type SyscallMediator interface{ MediatesSyscall() }

// Base provides no-opinion defaults for all hooks.
type Base struct{}

// MountCheck has no opinion by default.
func (Base) MountCheck(Task, *MountRequest) (Decision, error) { return NoOpinion, nil }

// UmountCheck has no opinion by default.
func (Base) UmountCheck(Task, *UmountRequest) (Decision, error) { return NoOpinion, nil }

// SocketCreate has no opinion by default.
func (Base) SocketCreate(Task, *SocketRequest) (Decision, error) { return NoOpinion, nil }

// BindCheck has no opinion by default.
func (Base) BindCheck(Task, *BindRequest) (Decision, error) { return NoOpinion, nil }

// IoctlCheck has no opinion by default.
func (Base) IoctlCheck(Task, *IoctlRequest) (Decision, error) { return NoOpinion, nil }

// SetuidCheck has no opinion by default.
func (Base) SetuidCheck(Task, int) (Decision, error) { return NoOpinion, nil }

// SetgidCheck has no opinion by default.
func (Base) SetgidCheck(Task, int) (Decision, error) { return NoOpinion, nil }

// ExecCheck allows by default with no credential update.
func (Base) ExecCheck(Task, *ExecRequest) (*CredUpdate, error) { return nil, nil }

// FileOpen has no opinion by default.
func (Base) FileOpen(Task, OpenRequest) (Decision, error) { return NoOpinion, nil }

// TaskSyscall has no opinion by default.
func (Base) TaskSyscall(Task, int, string) (Decision, error) { return NoOpinion, nil }

// combine merges a new decision into an accumulator: Deny dominates, then
// DeferToExec, then Grant, then NoOpinion.
func combine(acc, d Decision) Decision {
	if d > acc {
		return d
	}
	return acc
}

// hook numbers the chain's hooks, indexing its trace slots.
type hook uint8

const (
	hookMount hook = iota
	hookUmount
	hookSocket
	hookBind
	hookIoctl
	hookSetuid
	hookSetgid
	hookExec
	hookFileOpen
	hookTaskSyscall
	numHooks
)

// hookNames are the hooks' trace names.
var hookNames = [numHooks]string{
	hookMount:       "MountCheck",
	hookUmount:      "UmountCheck",
	hookSocket:      "SocketCreate",
	hookBind:        "BindCheck",
	hookIoctl:       "IoctlCheck",
	hookSetuid:      "SetuidCheck",
	hookSetgid:      "SetgidCheck",
	hookExec:        "ExecCheck",
	hookFileOpen:    "FileOpen",
	hookTaskSyscall: "TaskSyscall",
}

// hookSyms are the hooks' trace names as trace symbols.
var hookSyms = func() (syms [numHooks]trace.Sym) {
	for h, name := range hookNames {
		syms[h] = trace.Intern(name)
	}
	return syms
}()

// numDecisionSlots covers every Decision plus one slot shared by
// out-of-range values.
const numDecisionSlots = int(Deny) + 2

// decisionSlot returns dec's slot in the per-decision tables.
func decisionSlot(dec Decision) int {
	if dec < NoOpinion || dec > Deny {
		return numDecisionSlots - 1
	}
	return int(dec)
}

// decisionSyms are the decisions' trace names as trace symbols, by slot.
var decisionSyms = func() (syms [numDecisionSlots]trace.Sym) {
	for slot := range syms {
		syms[slot] = trace.Intern(Decision(slot).String())
	}
	return syms
}()

// link is one registered module with its trace name as a symbol and its
// decision counters, resolved on first use: one per (hook, decision).
type link struct {
	m    Module
	sym  trace.Sym
	ctrs *[numHooks][numDecisionSlots]trace.CounterRef
}

// Chain composes several modules. Deny from any module wins, matching the
// restrictive stacking discipline of Linux LSMs; otherwise the strongest
// permissive decision is reported to the kernel.
type Chain struct {
	links []link
	// sysLinks is the subset of links whose module implements
	// SyscallMediator, the only ones TaskSyscall walks (see that hook's
	// contract). Non-empty, it is also the kernel's syscall gate
	// (SyscallMediated).
	sysLinks []link
	// tracer, when set, receives one decision event per hook evaluation
	// (tagged with the winning module) plus per-module decision counts.
	// It is installed once at kernel construction, before any concurrent
	// hook traffic.
	tracer *trace.Tracer
	// hists holds each hook's latency histogram, resolved on first use.
	hists [numHooks]trace.HistogramRef
	// sysAllow counts TaskSyscall evaluations where every module had no
	// opinion. That hook runs on every syscall's hot path, so the
	// unanimous-allow case lands in one atomic (surfaced as the
	// lsm.syscall.allow fast-path counter in /proc/trace/stats) instead
	// of the per-call observe/count machinery.
	sysAllow atomic.Uint64
}

// NewChain creates a chain over the given modules (evaluated in order).
func NewChain(modules ...Module) *Chain {
	c := &Chain{}
	for _, m := range modules {
		c.Register(m)
	}
	return c
}

// Register appends a module to the chain.
func (c *Chain) Register(m Module) {
	l := link{m: m, sym: trace.Intern(m.Name()), ctrs: new([numHooks][numDecisionSlots]trace.CounterRef)}
	c.links = append(c.links, l)
	if _, ok := m.(SyscallMediator); ok {
		c.sysLinks = append(c.sysLinks, l)
	}
}

// SyscallMediated reports whether a SyscallMediator has joined the chain.
// The kernel's enter() prologue consults TaskSyscall only when it does, so
// a machine without a seccomp module skips the hook on every syscall.
func (c *Chain) SyscallMediated() bool { return len(c.sysLinks) > 0 }

// Modules returns the registered modules in evaluation order.
func (c *Chain) Modules() []Module {
	out := make([]Module, len(c.links))
	for i, l := range c.links {
		out[i] = l.m
	}
	return out
}

// SetTracer installs the trace sink for hook decisions. Must be called
// once, before the chain sees concurrent traffic (the kernel does it at
// boot): the chain's resolved counters and histograms stay bound to it.
func (c *Chain) SetTracer(tr *trace.Tracer) {
	c.tracer = tr
	tr.RegisterAtomic("lsm.syscall.allow", &c.sysAllow)
}

// Name implements Module for nested chains.
func (c *Chain) Name() string { return "chain" }

type hookFunc func(m Module) (Decision, error)

// start returns the start of a traced hook evaluation on the trace clock.
func (c *Chain) start() time.Duration {
	if c.tracer == nil {
		return 0
	}
	return trace.Now()
}

// run evaluates hook h across the chain. A Deny — or an error, which is
// treated as Deny — short-circuits; otherwise the strongest permissive
// decision accumulates. The winning module (the denier, or the module
// whose opinion raised the accumulator last) is reported to the tracer;
// an empty winner means every module deferred to base policy.
func (c *Chain) run(h hook, t Task, f hookFunc) (Decision, error) {
	start := c.start()
	acc := NoOpinion
	var winner trace.Sym
	for i := range c.links {
		l := &c.links[i]
		dec, err := f(l.m)
		c.count(h, l, dec, err)
		if dec == Deny || err != nil {
			c.observe(h, t, Deny, l.sym, err, start)
			return Deny, err
		}
		if next := combine(acc, dec); next != acc {
			acc = next
			winner = l.sym
		}
	}
	c.observe(h, t, acc, winner, nil, start)
	return acc, nil
}

// count bumps the per-module decision counter for one consulted module.
func (c *Chain) count(h hook, l *link, dec Decision, err error) {
	if c.tracer == nil {
		return
	}
	if err != nil {
		dec = Deny
	}
	slot := decisionSlot(dec)
	c.tracer.CountDecisionRef(&l.ctrs[h][slot], hookSyms[h], l.sym, decisionSyms[slot])
}

// observe emits the hook's decision event; winner is the winning module's
// symbol (0 for base policy).
func (c *Chain) observe(h hook, t Task, dec Decision, winner trace.Sym, err error, start time.Duration) {
	if c.tracer == nil {
		return
	}
	pid, uid := 0, -1
	if t != nil {
		pid, uid = t.PID(), t.UID()
	}
	c.tracer.HookDecision(&c.hists[h], hookSyms[h], pid, uid, decisionSyms[decisionSlot(dec)], winner, err, start)
}

// MountCheck runs the hook across the chain.
func (c *Chain) MountCheck(t Task, req *MountRequest) (Decision, error) {
	return c.run(hookMount, t, func(m Module) (Decision, error) { return m.MountCheck(t, req) })
}

// UmountCheck runs the hook across the chain.
func (c *Chain) UmountCheck(t Task, req *UmountRequest) (Decision, error) {
	return c.run(hookUmount, t, func(m Module) (Decision, error) { return m.UmountCheck(t, req) })
}

// SocketCreate runs the hook across the chain.
func (c *Chain) SocketCreate(t Task, req *SocketRequest) (Decision, error) {
	return c.run(hookSocket, t, func(m Module) (Decision, error) { return m.SocketCreate(t, req) })
}

// BindCheck runs the hook across the chain.
func (c *Chain) BindCheck(t Task, req *BindRequest) (Decision, error) {
	return c.run(hookBind, t, func(m Module) (Decision, error) { return m.BindCheck(t, req) })
}

// IoctlCheck runs the hook across the chain.
func (c *Chain) IoctlCheck(t Task, req *IoctlRequest) (Decision, error) {
	return c.run(hookIoctl, t, func(m Module) (Decision, error) { return m.IoctlCheck(t, req) })
}

// SetuidCheck runs the hook across the chain.
func (c *Chain) SetuidCheck(t Task, targetUID int) (Decision, error) {
	return c.run(hookSetuid, t, func(m Module) (Decision, error) { return m.SetuidCheck(t, targetUID) })
}

// SetgidCheck runs the hook across the chain.
func (c *Chain) SetgidCheck(t Task, targetGID int) (Decision, error) {
	return c.run(hookSetgid, t, func(m Module) (Decision, error) { return m.SetgidCheck(t, targetGID) })
}

// ExecCheck runs the hook across the chain; the first non-nil CredUpdate is
// kept (modules later in the chain still get to veto). A module's update
// counts as a Grant, its absence as NoOpinion.
func (c *Chain) ExecCheck(t Task, req *ExecRequest) (*CredUpdate, error) {
	var update *CredUpdate
	_, err := c.run(hookExec, t, func(m Module) (Decision, error) {
		u, err := m.ExecCheck(t, req)
		if err != nil || u == nil {
			return NoOpinion, err
		}
		if update == nil {
			update = u
		}
		return Grant, nil
	})
	if err != nil {
		return nil, err
	}
	return update, nil
}

// FileOpen runs the hook across the chain.
func (c *Chain) FileOpen(t Task, req OpenRequest) (Decision, error) {
	return c.run(hookFileOpen, t, func(m Module) (Decision, error) { return m.FileOpen(t, req) })
}

// TaskSyscall runs the syscall-entry hook across the chain. The chain
// discipline is the same as run's — Deny or an error short-circuits,
// otherwise the strongest permissive decision wins — but the hook sits on
// every syscall's hot path, so the overwhelmingly common unanimous
// no-opinion outcome bypasses the per-call count/observe machinery and
// bumps the lsm.syscall.allow fast-path counter instead. Effectual
// decisions (a deny, a grant, a module error) still flow through the
// count and observe path, so they appear in /proc/trace/stats exactly
// like every other hook's. Latency is not separately sampled here: the
// per-syscall histograms already bracket the prologue. Only modules
// registered as SyscallMediator are consulted.
func (c *Chain) TaskSyscall(t Task, sysno int, name string) (Decision, error) {
	acc := NoOpinion
	var winner *link
	for i := range c.sysLinks {
		l := &c.sysLinks[i]
		dec, err := l.m.TaskSyscall(t, sysno, name)
		if dec == Deny || err != nil {
			c.count(hookTaskSyscall, l, dec, err)
			c.observe(hookTaskSyscall, t, Deny, l.sym, err, c.start())
			return Deny, err
		}
		if next := combine(acc, dec); next != acc {
			acc = next
			winner = l
		}
	}
	if acc == NoOpinion {
		c.sysAllow.Add(1)
		return NoOpinion, nil
	}
	c.count(hookTaskSyscall, winner, acc, nil)
	c.observe(hookTaskSyscall, t, acc, winner.sym, nil, c.start())
	return acc, nil
}

// ResolveGroups queries the first module implementing GroupResolver.
func (c *Chain) ResolveGroups(uid int) (int, []int, bool) {
	for _, l := range c.links {
		if r, ok := l.m.(GroupResolver); ok {
			if gid, groups, ok := r.ResolveGroups(uid); ok {
				return gid, groups, true
			}
		}
	}
	return 0, nil, false
}

var _ Module = (*Chain)(nil)
