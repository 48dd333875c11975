package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the default ring size: 4096 events (a power of two).
// This is also the retention cap of the legacy kernel audit log, which is
// a filtered view of the same ring.
const DefaultCapacity = 4096

// CounterKey identifies one (hook, module, decision) decision counter.
type CounterKey struct {
	Hook     string
	Module   string
	Decision string
}

// MaxSyscalls bounds the syscall numbers SyscallEnterNo keeps a
// histogram slot for. The kernel's syscall catalog must fit in it.
const MaxSyscalls = 64

// Histogram groups: stats keys are "<group>:<name>".
const (
	groupSyscall  = "syscall"
	groupLSM      = "lsm"
	groupMonitord = "monitord"
)

// histKey names one histogram.
type histKey struct {
	group, name string
}

// Tracer owns the event ring, the latency histograms, and the decision
// counters. One tracer is created per simulated kernel; every producer in
// the kernel emits through it. All methods are safe for concurrent use.
type Tracer struct {
	ring Ring

	// emitted counts events per kind (never decremented), so consumers
	// can compute per-kind drop counts against a ring snapshot.
	emitted [numKinds]atomic.Uint64

	// hists is every histogram by key, the slow path and the read side.
	// Hot producers resolve their histogram once into a HistogramRef:
	// sys holds the syscall histograms by syscall number, and the LSM
	// chain holds its hooks' refs.
	histMu sync.RWMutex
	hists  map[histKey]*Histogram
	sys    [MaxSyscalls]HistogramRef

	// counters maps CounterKey to its counter (see counters.go).
	ctrMu    sync.RWMutex
	counters map[CounterKey]*atomic.Uint64

	// fastpath holds lazily-read monotonic counters registered by other
	// subsystems (the dcache, the mount-whitelist index, the seccomp
	// gate). The owning subsystem keeps the hot atomic; the tracer only
	// reads it at snapshot/render time, so registration adds zero
	// hot-path cost.
	fpMu     sync.RWMutex
	fastpath map[string]*atomic.Uint64
}

// New creates a tracer whose ring holds at least capacity events
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	tr := &Tracer{
		hists:    make(map[histKey]*Histogram),
		counters: make(map[CounterKey]*atomic.Uint64),
		fastpath: make(map[string]*atomic.Uint64),
	}
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
	tr.fastpath[name] = n
	tr.fpMu.Unlock()
}

// FastpathCounters reads every registered fast-path counter.
func (tr *Tracer) FastpathCounters() map[string]uint64 {
	if tr == nil {
		return nil
	}
	tr.fpMu.RLock()
	defer tr.fpMu.RUnlock()
	out := make(map[string]uint64, len(tr.fastpath))
	for k, n := range tr.fastpath {
		out[k] = n.Load()
	}
	return out
}

// Emit stamps and appends an arbitrary event.
func (tr *Tracer) Emit(ev Event) {
	if tr == nil {
		return
	}
	tr.emit(&ev)
}

// emit is Emit for an event the caller built: it is copied once, into
// its ring slot.
func (tr *Tracer) emit(ev *Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	if ev.Kind < numKinds {
		tr.emitted[ev.Kind].Add(1)
	}
	tr.ring.append(ev)
}

// SyscallToken carries the state between a syscall's enter and exit event.
type SyscallToken struct {
	hist  *Histogram
	name  string
	pid   int
	uid   int
	start time.Time
}

// SyscallEnter emits the enter event and returns the token the matching
// SyscallExit consumes. It looks the syscall's histogram up by name;
// the kernel, which knows its syscall numbers, uses SyscallEnterNo.
func (tr *Tracer) SyscallEnter(name string, pid, uid int) SyscallToken {
	if tr == nil {
		return SyscallToken{}
	}
	return tr.syscallEnter(tr.histogram(groupSyscall, name), name, pid, uid)
}

// SyscallEnterNo is SyscallEnter for syscall number no (the kernel's
// Sysno): the histogram comes from the tracer's slot for no, resolved on
// the number's first use, so a repeat syscall takes no lock and hashes
// no key. Numbers outside [0, MaxSyscalls) fall back to the name.
func (tr *Tracer) SyscallEnterNo(no int, name string, pid, uid int) SyscallToken {
	if tr == nil {
		return SyscallToken{}
	}
	var h *Histogram
	if uint(no) < MaxSyscalls {
		h = tr.histogramRef(&tr.sys[no], groupSyscall, name)
	} else {
		h = tr.histogram(groupSyscall, name)
	}
	return tr.syscallEnter(h, name, pid, uid)
}

func (tr *Tracer) syscallEnter(h *Histogram, name string, pid, uid int) SyscallToken {
	tok := SyscallToken{hist: h, name: name, pid: pid, uid: uid, start: time.Now()}
	tr.emit(&Event{Kind: KindSyscallEnter, Name: name, PID: pid, UID: uid, Time: tok.start})
	return tok
}

// SyscallExit emits the exit event, records the latency in the syscall's
// histogram, and tags the event with the error, if any. One clock read
// ends the latency sample and stamps the event.
func (tr *Tracer) SyscallExit(tok SyscallToken, err error) {
	if tr == nil || tok.hist == nil {
		return
	}
	now := time.Now()
	lat := now.Sub(tok.start)
	ev := Event{Kind: KindSyscallExit, Name: tok.name, PID: tok.pid, UID: tok.uid, Latency: lat, Time: now}
	if err != nil {
		ev.Err = err.Error()
	}
	tr.emit(&ev)
	tok.hist.Observe(lat)
}

// HookDecision records one chain hook evaluation that began at start: the
// final decision, the module whose opinion won (empty for base policy),
// and the hook latency, into the hook's histogram, which the producer
// keeps in ref. One clock read ends the latency sample and stamps the
// event.
func (tr *Tracer) HookDecision(ref *HistogramRef, hook string, pid, uid int, decision, winner string, err error, start time.Time) {
	if tr == nil {
		return
	}
	now := time.Now()
	lat := now.Sub(start)
	ev := Event{Kind: KindLSMDecision, Name: hook, PID: pid, UID: uid,
		Module: winner, Decision: decision, Latency: lat, Time: now}
	if err != nil {
		ev.Err = err.Error()
	}
	tr.emit(&ev)
	tr.histogramRef(ref, groupLSM, hook).Observe(lat)
}

// CountDecisionRef bumps the (hook, module, decision) counter — one bump
// per module consulted, independent of which module won the chain. A
// producer that keeps the counter in ref pays one atomic add after the
// first call; a nil ref resolves the key every time.
func (tr *Tracer) CountDecisionRef(ref *CounterRef, hook, module, decision string) {
	if tr == nil {
		return
	}
	tr.count(ref, "", hook, module, decision)
}

// NetfilterVerdictRef records an OUTPUT-chain verdict; rule is the
// matching rule name (empty when the chain's default policy applied). The
// producer keeps the verdict's counter in ref (nil resolves it by key).
func (tr *Tracer) NetfilterVerdictRef(ref *CounterRef, chain, rule, verdict string, senderUID int) {
	if tr == nil {
		return
	}
	tr.emit(&Event{Kind: KindNetfilterVerdict, Name: chain, UID: senderUID,
		Module: rule, Decision: verdict})
	tr.count(ref, "netfilter", chain, ruleOrPolicy(rule), verdict)
}

func ruleOrPolicy(rule string) string {
	if rule == "" {
		return "(policy)"
	}
	return rule
}

// MonitordSync stamps one monitoring-daemon reparse/push cycle.
func (tr *Tracer) MonitordSync(target string, lat time.Duration, err error) {
	if tr == nil {
		return
	}
	ev := Event{Kind: KindMonitordSync, Name: target, Latency: lat}
	if err != nil {
		ev.Err = err.Error()
	}
	tr.emit(&ev)
	tr.histogram(groupMonitord, target).Observe(lat)
}

// AuthCheckRef records an authentication-service check: mechanism is
// "password", "recency", or "group"; subject is the user or group name.
// The producer keeps the (mechanism, outcome) counter in ref (nil
// resolves it by key).
func (tr *Tracer) AuthCheckRef(ref *CounterRef, mechanism, subject string, pid, uid int, ok bool) {
	if tr == nil {
		return
	}
	outcome := "ok"
	if !ok {
		outcome = "fail"
	}
	tr.emit(&Event{Kind: KindAuthCheck, Name: subject, PID: pid, UID: uid,
		Module: mechanism, Decision: outcome})
	tr.count(ref, "auth", mechanism, mechanism, outcome)
}

// FaultInject records one deliberate fault injection: site is the
// registered injection site, action the fault kind ("err", "drop", "dup",
// "torn"), errname the injected errno's symbolic name (empty for non-error
// actions), and hit the site's 1-based hit count at injection time. The
// record is what makes a failing sweep run replayable.
func (tr *Tracer) FaultInject(site, action, errname string, hit uint64) {
	if tr == nil {
		return
	}
	tr.emit(&Event{Kind: KindFaultInject, Name: site, Module: action,
		Err: errname, Msg: fmt.Sprintf("hit=%d", hit)})
	tr.count(nil, "fault", site, action, "injected")
}

// Audit emits a legacy audit line as a structured event.
func (tr *Tracer) Audit(msg string) {
	if tr == nil {
		return
	}
	tr.emit(&Event{Kind: KindAudit, Msg: msg})
}

// HistogramRef caches one histogram of one tracer for a producer that
// records into it on every call. The zero value is ready; it resolves on
// first use and stays bound to the tracer it first resolved against.
type HistogramRef struct {
	p atomic.Pointer[Histogram]
}

// histogramRef returns ref's histogram, resolving (group, name) on first
// use.
func (tr *Tracer) histogramRef(ref *HistogramRef, group, name string) *Histogram {
	if h := ref.p.Load(); h != nil {
		return h
	}
	h := tr.histogram(group, name)
	ref.p.Store(h)
	return h
}

// histogram returns the (group, name) histogram, creating it on first
// use.
func (tr *Tracer) histogram(group, name string) *Histogram {
	key := histKey{group, name}
	tr.histMu.RLock()
	h := tr.hists[key]
	tr.histMu.RUnlock()
	if h != nil {
		return h
	}
	tr.histMu.Lock()
	defer tr.histMu.Unlock()
	if h = tr.hists[key]; h == nil {
		h = &Histogram{}
		tr.hists[key] = h
	}
	return h
}

// --- consumer API ---

// Snapshot returns the retained events, oldest first.
func (tr *Tracer) Snapshot() []Event { return tr.ring.Snapshot() }

// SnapshotKind returns the retained events of one kind, oldest first.
func (tr *Tracer) SnapshotKind(k Kind) []Event {
	all := tr.ring.Snapshot()
	out := make([]Event, 0, len(all))
	for _, ev := range all {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// Histogram returns the latency stats for one syscall (zero stats when the
// syscall was never observed).
func (tr *Tracer) Histogram(syscall string) HistStats {
	return tr.histStats(histKey{groupSyscall, syscall})
}

// HookHistogram returns the latency stats for one LSM hook.
func (tr *Tracer) HookHistogram(hook string) HistStats {
	return tr.histStats(histKey{groupLSM, hook})
}

func (tr *Tracer) histStats(key histKey) HistStats {
	tr.histMu.RLock()
	h := tr.hists[key]
	tr.histMu.RUnlock()
	if h == nil {
		return HistStats{}
	}
	return h.Stats()
}

// Histograms returns every histogram's stats keyed by "<group>:<name>".
func (tr *Tracer) Histograms() map[string]HistStats {
	tr.histMu.RLock()
	hists := make(map[histKey]*Histogram, len(tr.hists))
	for k, h := range tr.hists {
		hists[k] = h
	}
	tr.histMu.RUnlock()
	out := make(map[string]HistStats, len(hists))
	for k, h := range hists {
		out[k.group+":"+k.name] = h.Stats()
	}
	return out
}

// Counters returns a copy of the decision counters.
func (tr *Tracer) Counters() map[CounterKey]uint64 {
	tr.ctrMu.RLock()
	defer tr.ctrMu.RUnlock()
	out := make(map[CounterKey]uint64, len(tr.counters))
	for k, c := range tr.counters {
		out[k] = c.Load()
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

// EmittedKind returns how many events of one kind were ever emitted.
func (tr *Tracer) EmittedKind(k Kind) uint64 { return tr.emitted[k].Load() }

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
