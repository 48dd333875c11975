package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"protego/internal/errno"
)

// DefaultCapacity is the default ring size: 4096 events (a power of two).
// This is also the retention cap of the legacy kernel audit log, which is
// a filtered view of the same ring.
const DefaultCapacity = 4096

// epoch is the process's trace epoch: Now counts from it, and a snapshot
// turns a reading back into wall time from it.
var epoch = time.Now()

// Now returns the trace clock: the monotonic time since the process's
// trace epoch. It reads one clock where time.Now reads the wall clock and
// the monotonic clock; producers pass it as the start of a latency sample.
func Now() time.Duration { return time.Since(epoch) }

// CounterKey identifies one (hook, module, decision) decision counter.
type CounterKey struct {
	Hook     string
	Module   string
	Decision string
}

// MaxSyscalls bounds the syscall numbers SyscallEnterNo keeps a
// histogram slot for. The kernel's syscall catalog must fit in it.
const MaxSyscalls = 64

// keyGroup namespaces a histogram's or a counter's key: stats keys read
// "<group>:<name>", and so does every counter hook but an LSM decision's,
// which is bare.
type keyGroup uint8

// Key groups.
const (
	groupSyscall keyGroup = iota
	groupLSM
	groupMonitord
	groupNetfilter
	groupAuth
	groupFault
)

// groupNames are the groups as keys spell them.
var groupNames = [...]string{groupSyscall: "syscall", groupLSM: "lsm", groupMonitord: "monitord",
	groupNetfilter: "netfilter", groupAuth: "auth", groupFault: "fault"}

// Symbols of the auth outcomes, of the chain policy's pseudo-rule and of
// a fault's counted decision.
var (
	symOK       = Intern("ok")
	symFail     = Intern("fail")
	symPolicy   = Intern("(policy)")
	symInjected = Intern("injected")
)

// keyedHist is one histogram and its (group, name) key, the name as a
// symbol. It holds no pointer, so a fresh tracer's first use of a key
// costs one allocation the garbage collector never scans.
type keyedHist struct {
	h     Histogram
	name  Sym
	group keyGroup
}

// fastpathEntry is one registered fast-path counter.
type fastpathEntry struct {
	name string
	n    *atomic.Uint64
}

// Tracer owns the event ring, the latency histograms, and the decision
// counters. One tracer is created per simulated kernel; every producer in
// the kernel emits through it. All methods are safe for concurrent use.
type Tracer struct {
	ring ring

	// emitted counts events per kind (never decremented), so consumers
	// can compute per-kind drop counts against a ring snapshot.
	emitted [numKinds]atomic.Uint64

	// hists is every histogram, walked by the read side and scanned by
	// the by-key slow path. Hot producers resolve their histogram once
	// into a HistogramRef: sys holds the syscall histograms by syscall
	// number, and the LSM chain holds its hooks' refs.
	histMu sync.RWMutex
	hists  []*keyedHist
	sys    [MaxSyscalls]HistogramRef

	// counters is every decision counter (see counters.go).
	ctrMu    sync.RWMutex
	counters []*counter

	// fastpath holds lazily-read monotonic counters registered by other
	// subsystems (the dcache, the mount-whitelist index, the seccomp
	// gate). The owning subsystem keeps the hot atomic; the tracer only
	// reads it at snapshot/render time, so registration adds zero
	// hot-path cost.
	fpMu     sync.RWMutex
	fastpath []fastpathEntry

	// The first entries of each list live in the tracer itself, so a
	// fresh clone's tracer allocates nothing for the lists, only the
	// histograms and counters its keys need.
	histBuf [24]*keyedHist
	ctrBuf  [16]*counter
	fpBuf   [8]fastpathEntry
}

// New creates a tracer whose ring holds at least capacity events
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	tr := &Tracer{}
	tr.hists = tr.histBuf[:0]
	tr.counters = tr.ctrBuf[:0]
	tr.fastpath = tr.fpBuf[:0]
	tr.ring.init(capacity)
	return tr
}

// RegisterAtomic registers a named fast-path counter kept in n, read
// lazily (at render/snapshot time). The subsystem owning the counter
// keeps the hot atomic and pays nothing per event. Registering an
// existing name replaces the counter; a nil n is ignored.
func (tr *Tracer) RegisterAtomic(name string, n *atomic.Uint64) {
	if tr == nil || n == nil {
		return
	}
	tr.fpMu.Lock()
	defer tr.fpMu.Unlock()
	for i := range tr.fastpath {
		if tr.fastpath[i].name == name {
			tr.fastpath[i].n = n
			return
		}
	}
	tr.fastpath = append(tr.fastpath, fastpathEntry{name, n})
}

// FastpathCounters reads every registered fast-path counter.
func (tr *Tracer) FastpathCounters() map[string]uint64 {
	if tr == nil {
		return nil
	}
	tr.fpMu.RLock()
	defer tr.fpMu.RUnlock()
	out := make(map[string]uint64, len(tr.fastpath))
	for _, e := range tr.fastpath {
		out[e.name] = e.n.Load()
	}
	return out
}

// emit counts the record's kind and stores it, with its side text, in the
// ring: the record is copied once, into its slot.
func (tr *Tracer) emit(rec *record, text string) {
	tr.emitted[rec.kind].Add(1)
	tr.ring.append(rec, text)
}

// SyscallToken carries the state between a syscall's enter and exit event.
type SyscallToken struct {
	hist     *Histogram
	name     Sym
	pid, uid int32
	start    time.Duration
}

// SyscallEnter emits the enter event and returns the token the matching
// SyscallExit consumes. It looks the syscall's histogram up by name;
// the kernel, which knows its syscall numbers, uses SyscallEnterNo.
func (tr *Tracer) SyscallEnter(name string, pid, uid int) SyscallToken {
	if tr == nil {
		return SyscallToken{}
	}
	sym := Intern(name)
	return tr.syscallEnter(&tr.histogram(groupSyscall, sym).h, sym, pid, uid)
}

// SyscallEnterNo is SyscallEnter for syscall number no (the kernel's
// Sysno) named by the symbol name: the histogram comes from the tracer's
// slot for no, resolved on the number's first use, so a repeat syscall
// takes no lock and compares no key. Numbers outside [0, MaxSyscalls)
// look the histogram up by name.
func (tr *Tracer) SyscallEnterNo(no int, name Sym, pid, uid int) SyscallToken {
	if tr == nil {
		return SyscallToken{}
	}
	var h *Histogram
	if uint(no) < MaxSyscalls {
		h = tr.histogramRef(&tr.sys[no], groupSyscall, name)
	} else {
		h = &tr.histogram(groupSyscall, name).h
	}
	return tr.syscallEnter(h, name, pid, uid)
}

func (tr *Tracer) syscallEnter(h *Histogram, name Sym, pid, uid int) SyscallToken {
	tok := SyscallToken{hist: h, name: name, pid: int32(pid), uid: int32(uid), start: Now()}
	tr.emit(&record{kind: KindSyscallEnter, name: name, pid: tok.pid, uid: tok.uid, time: tok.start}, "")
	return tok
}

// SyscallExit emits the exit event, records the latency in the syscall's
// histogram, and tags the event with the error, if any. One clock read
// ends the latency sample and stamps the event.
func (tr *Tracer) SyscallExit(tok SyscallToken, err error) {
	if tr == nil || tok.hist == nil {
		return
	}
	now := Now()
	rec := record{kind: KindSyscallExit, name: tok.name, pid: tok.pid, uid: tok.uid,
		lat: now - tok.start, time: now}
	tr.emit(&rec, rec.setErr(err))
	tok.hist.Observe(rec.lat)
}

// HookDecision records one chain hook evaluation that began at start (a
// Now reading): the final decision, the module whose opinion won (0 for
// base policy), and the hook latency, into the hook's histogram, which
// the producer keeps in ref. One clock read ends the latency sample and
// stamps the event.
func (tr *Tracer) HookDecision(ref *HistogramRef, hook Sym, pid, uid int, decision, winner Sym, err error, start time.Duration) {
	if tr == nil {
		return
	}
	now := Now()
	rec := record{kind: KindLSMDecision, name: hook, pid: int32(pid), uid: int32(uid),
		module: winner, decision: decision, lat: now - start, time: now}
	tr.emit(&rec, rec.setErr(err))
	tr.histogramRef(ref, groupLSM, hook).Observe(rec.lat)
}

// CountDecisionRef bumps the (hook, module, decision) counter — one bump
// per module consulted, independent of which module won the chain. A
// producer that keeps the counter in ref pays one atomic add after the
// first call; a nil ref resolves the key every time.
func (tr *Tracer) CountDecisionRef(ref *CounterRef, hook, module, decision Sym) {
	if tr == nil {
		return
	}
	tr.count(ref, counterKey{hook: hook, module: module, decision: decision, group: groupLSM})
}

// NetfilterVerdictRef records an OUTPUT-chain verdict; rule is the
// matching rule's name (0 when the chain's policy applied). The producer
// holds the names as symbols and keeps the verdict's counter in ref (nil
// resolves it by key), so a verdict interns nothing.
func (tr *Tracer) NetfilterVerdictRef(ref *CounterRef, chain, rule, verdict Sym, senderUID int) {
	if tr == nil {
		return
	}
	rec := record{kind: KindNetfilterVerdict, name: chain, uid: int32(senderUID),
		module: rule, decision: verdict, time: Now()}
	tr.emit(&rec, "")
	key := counterKey{hook: rec.name, module: rec.module, decision: rec.decision, group: groupNetfilter}
	if key.module == 0 {
		key.module = symPolicy
	}
	tr.count(ref, key)
}

// MonitordSync stamps one monitoring-daemon reparse/push cycle that began
// at start (a Now reading).
func (tr *Tracer) MonitordSync(target string, start time.Duration, err error) {
	if tr == nil {
		return
	}
	name := Intern(target)
	now := Now()
	rec := record{kind: KindMonitordSync, name: name, lat: now - start, time: now}
	tr.emit(&rec, rec.setErr(err))
	tr.histogram(groupMonitord, name).h.Observe(rec.lat)
}

// AuthCheckRef records an authentication-service check: mechanism is
// "password", "recency", or "group"; subject is the user or group name.
// The producer keeps the (mechanism, outcome) counter in ref (nil
// resolves it by key).
func (tr *Tracer) AuthCheckRef(ref *CounterRef, mechanism, subject string, pid, uid int, ok bool) {
	if tr == nil {
		return
	}
	outcome := symOK
	if !ok {
		outcome = symFail
	}
	rec := record{kind: KindAuthCheck, pid: int32(pid), uid: int32(uid),
		module: Intern(mechanism), decision: outcome, time: Now()}
	tr.emit(&rec, rec.withText(textName, subject))
	tr.count(ref, counterKey{hook: rec.module, module: rec.module, decision: outcome, group: groupAuth})
}

// FaultInject records one deliberate fault injection: site is the
// registered injection site, action the fault kind ("err", "drop", "dup",
// "torn"), e the injected errno (0 for non-error actions), and hit the
// site's 1-based hit count at injection time. The record is what makes a
// failing sweep run replayable.
func (tr *Tracer) FaultInject(site, action string, e errno.Errno, hit uint64) {
	if tr == nil {
		return
	}
	rec := record{kind: KindFaultInject, name: Intern(site), module: Intern(action),
		errno: int32(e), time: Now()}
	tr.emit(&rec, rec.withText(textMsg, "hit="+strconv.FormatUint(hit, 10)))
	tr.count(nil, counterKey{hook: rec.name, module: rec.module, decision: symInjected, group: groupFault})
}

// Audit emits a legacy audit line as a structured event.
func (tr *Tracer) Audit(msg string) {
	if tr == nil {
		return
	}
	rec := record{kind: KindAudit, time: Now()}
	tr.emit(&rec, rec.withText(textMsg, msg))
}

// HistogramRef caches one histogram of one tracer for a producer that
// records into it on every call. The zero value is ready; it resolves on
// first use and stays bound to the tracer it first resolved against.
type HistogramRef struct {
	p atomic.Pointer[Histogram]
}

// histogramRef returns ref's histogram, resolving (group, name) on first
// use.
func (tr *Tracer) histogramRef(ref *HistogramRef, group keyGroup, name Sym) *Histogram {
	if h := ref.p.Load(); h != nil {
		return h
	}
	h := &tr.histogram(group, name).h
	ref.p.Store(h)
	return h
}

// histogram returns the (group, name) histogram's entry, creating it on
// first use. The key is two integers: finding it compares no string, and
// creating it interns nothing.
func (tr *Tracer) histogram(group keyGroup, name Sym) *keyedHist {
	tr.histMu.RLock()
	kh := findHist(tr.hists, group, name)
	tr.histMu.RUnlock()
	if kh != nil {
		return kh
	}
	tr.histMu.Lock()
	defer tr.histMu.Unlock()
	if kh = findHist(tr.hists, group, name); kh == nil {
		kh = &keyedHist{group: group, name: name}
		tr.hists = append(tr.hists, kh)
	}
	return kh
}

func findHist(hs []*keyedHist, group keyGroup, name Sym) *keyedHist {
	for _, kh := range hs {
		if kh.name == name && kh.group == group {
			return kh
		}
	}
	return nil
}

// --- consumer API ---

func allKinds(Kind) bool { return true }

// Snapshot returns the retained events, oldest first.
func (tr *Tracer) Snapshot() []Event { return tr.ring.snapshot(allKinds) }

// SnapshotKind returns the retained events of one kind, oldest first.
func (tr *Tracer) SnapshotKind(k Kind) []Event {
	return tr.ring.snapshot(func(kind Kind) bool { return kind == k })
}

// HookHistogram returns the latency stats for one LSM hook.
func (tr *Tracer) HookHistogram(hook string) HistStats {
	return tr.histStats(groupLSM, hook)
}

// histStats returns the (group, name) histogram's stats; a name never
// interned has none, and looking it up interns nothing.
func (tr *Tracer) histStats(group keyGroup, name string) HistStats {
	sym, ok := lookup(name)
	if !ok {
		return HistStats{}
	}
	tr.histMu.RLock()
	kh := findHist(tr.hists, group, sym)
	tr.histMu.RUnlock()
	if kh == nil {
		return HistStats{}
	}
	return kh.h.Stats()
}

// Histograms returns every histogram's stats keyed by "<group>:<name>".
func (tr *Tracer) Histograms() map[string]HistStats {
	tr.histMu.RLock()
	hists := append([]*keyedHist(nil), tr.hists...)
	tr.histMu.RUnlock()
	syms := symbolList()
	out := make(map[string]HistStats, len(hists))
	for _, kh := range hists {
		out[groupNames[kh.group]+":"+syms[kh.name]] = kh.h.Stats()
	}
	return out
}

// Counters returns a copy of the decision counters.
func (tr *Tracer) Counters() map[CounterKey]uint64 {
	tr.ctrMu.RLock()
	defer tr.ctrMu.RUnlock()
	syms := symbolList() // under the lock: every listed key is in it
	out := make(map[CounterKey]uint64, len(tr.counters))
	for _, c := range tr.counters {
		out[c.key.public(syms)] = c.n.Load()
	}
	return out
}

// Stats summarizes ring occupancy.
type Stats struct {
	Capacity int
	Emitted  uint64
	Dropped  uint64
	// ByKind counts emissions per kind name.
	ByKind map[string]uint64
}

// Stats returns ring occupancy and per-kind emission counts.
func (tr *Tracer) Stats() Stats {
	s := Stats{
		Capacity: tr.ring.Cap(),
		Emitted:  tr.ring.Emitted(),
		Dropped:  tr.ring.Dropped(),
		ByKind:   make(map[string]uint64, numKinds),
	}
	for i := 0; i < numKinds; i++ {
		s.ByKind[Kind(i).String()] = tr.emitted[i].Load()
	}
	return s
}

// --- rendering (the /proc/trace files and the CLI report) ---

// RenderEvents renders the newest max retained events (all when max <= 0)
// as one line per event, oldest first.
func (tr *Tracer) RenderEvents(max int) string {
	evs := tr.Snapshot()
	if max > 0 && len(evs) > max {
		evs = evs[len(evs)-max:]
	}
	var b strings.Builder
	for _, ev := range evs {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderStats renders ring stats, latency histograms, and decision
// counters as the /proc/trace/stats text.
func (tr *Tracer) RenderStats() string {
	var b strings.Builder
	s := tr.Stats()
	fmt.Fprintf(&b, "ring: capacity=%d emitted=%d dropped=%d\n", s.Capacity, s.Emitted, s.Dropped)
	for _, kind := range KindNames() {
		fmt.Fprintf(&b, "emitted[%s]: %d\n", kind, s.ByKind[kind])
	}

	hists := tr.Histograms()
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		b.WriteString("\nlatency histograms (log2 ns buckets):\n")
		for _, k := range keys {
			st := hists[k]
			fmt.Fprintf(&b, "  %-28s %s  %s\n", k, st.String(), st.Sparkline())
		}
	}

	ctrs := tr.Counters()
	ckeys := make([]CounterKey, 0, len(ctrs))
	for k := range ctrs {
		ckeys = append(ckeys, k)
	}
	sort.Slice(ckeys, func(i, j int) bool {
		a, b := ckeys[i], ckeys[j]
		if a.Hook != b.Hook {
			return a.Hook < b.Hook
		}
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		return a.Decision < b.Decision
	})
	if len(ckeys) > 0 {
		b.WriteString("\ndecision counters:\n")
		for _, k := range ckeys {
			fmt.Fprintf(&b, "  %-24s %-16s %-14s %d\n", k.Hook, k.Module, k.Decision, ctrs[k])
		}
	}

	if fp := tr.FastpathCounters(); len(fp) > 0 {
		fkeys := make([]string, 0, len(fp))
		for k := range fp {
			fkeys = append(fkeys, k)
		}
		sort.Strings(fkeys)
		b.WriteString("\nfastpath counters:\n")
		for _, k := range fkeys {
			fmt.Fprintf(&b, "  %-24s %d\n", k, fp[k])
		}
		if total := fp["dcache.hit"] + fp["dcache.miss"]; total > 0 {
			fmt.Fprintf(&b, "  %-24s %.4f\n", "dcache.hit_ratio", float64(fp["dcache.hit"])/float64(total))
		}
	}
	return b.String()
}
