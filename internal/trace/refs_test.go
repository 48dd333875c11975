package trace

import (
	"reflect"
	"sync"
	"testing"
)

// TestResolvedSlotsExact: producers that resolve their histograms and
// counters once (syscall numbers, HistogramRef, CounterRef) must land in
// the same entries the by-name API reads and writes, lose no update under
// concurrent writers racing to resolve, and allocate nothing per event
// once resolved.
func TestResolvedSlotsExact(t *testing.T) {
	tr := New(64)
	const (
		writers = 8
		calls   = 1000
	)
	var hook HistogramRef
	var grant, nfDrop, authOK CounterRef
	getpid, mountCheck := Intern("getpid"), Intern("MountCheck")
	symGrant, protego := Intern("grant"), Intern("protego")
	output, r1, drop := Intern("OUTPUT"), Intern("r1"), Intern("DROP")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				tr.SyscallExit(tr.SyscallEnterNo(7, getpid, 1, 0), nil)
				tr.SyscallExit(tr.SyscallEnter("getpid", 1, 0), nil)
				tr.HookDecision(&hook, mountCheck, 1, 0, symGrant, protego, nil, Now())
				tr.CountDecisionRef(&grant, mountCheck, protego, symGrant)
				tr.CountDecisionRef(nil, mountCheck, protego, symGrant)
				tr.NetfilterVerdictRef(&nfDrop, output, r1, drop, 0)
				tr.AuthCheckRef(&authOK, "password", "alice", 1, 0, true)
			}
		}()
	}
	wg.Wait()
	const n = writers * calls
	if got := tr.Histograms()["syscall:getpid"].Count; got != 2*n {
		t.Errorf("getpid histogram count = %d, want %d (by number and by name share one)", got, 2*n)
	}
	if got := tr.HookHistogram("MountCheck").Count; got != n {
		t.Errorf("MountCheck histogram count = %d, want %d", got, n)
	}
	ctrs := tr.Counters()
	for key, want := range map[CounterKey]uint64{
		{"MountCheck", "protego", "grant"}:  2 * n,
		{"netfilter:OUTPUT", "r1", "DROP"}:  n,
		{"auth:password", "password", "ok"}: n,
	} {
		if ctrs[key] != want {
			t.Errorf("counter %v = %d, want %d", key, ctrs[key], want)
		}
	}
	if got := len(tr.Histograms()); got != 2 {
		t.Errorf("%d histograms, want 2: %v", got, tr.Histograms())
	}

	if a := testing.AllocsPerRun(100, func() {
		tr.SyscallExit(tr.SyscallEnterNo(7, getpid, 1, 0), nil)
		tr.HookDecision(&hook, mountCheck, 1, 0, symGrant, protego, nil, Now())
		tr.CountDecisionRef(&grant, mountCheck, protego, symGrant)
		tr.NetfilterVerdictRef(&nfDrop, output, r1, drop, 0)
		tr.AuthCheckRef(&authOK, "password", "alice", 1, 0, true)
	}); a != 0 {
		t.Errorf("resolved producers allocate %.0f times per round", a)
	}
}

// TestFirstUseOnePointerFreeAlloc: a fresh tracer's first use of a
// syscall number, of a hook and of a decision counter key, a netfilter
// verdict's included, costs one allocation each, of a type that holds no
// pointer: no key is interned, compared as text or concatenated.
func TestFirstUseOnePointerFreeAlloc(t *testing.T) {
	for _, v := range []any{keyedHist{}, counter{}} {
		if hasPointers(reflect.TypeOf(v)) {
			t.Errorf("%T holds a pointer", v)
		}
	}
	const runs = 10
	open, getpid := Intern("open"), Intern("getpid")
	mountCheck, protego, grant := Intern("MountCheck"), Intern("protego"), Intern("grant")
	output, r1, drop := Intern("OUTPUT"), Intern("r1"), Intern("DROP")
	tracers := make([]*Tracer, runs+1)
	for i := range tracers {
		tracers[i] = New(64)
		// The ring's first chunk is made by the first event.
		tracers[i].SyscallExit(tracers[i].SyscallEnterNo(1, open, 1, 0), nil)
	}
	hooks := make([]HistogramRef, runs+1)
	ctrs := make([][2]CounterRef, runs+1)
	next := 0
	a := testing.AllocsPerRun(runs, func() {
		tr, hook, ctr := tracers[next], &hooks[next], &ctrs[next]
		next++
		tr.SyscallExit(tr.SyscallEnterNo(2, getpid, 1, 0), nil)
		tr.HookDecision(hook, mountCheck, 1, 0, grant, protego, nil, Now())
		tr.CountDecisionRef(&ctr[0], mountCheck, protego, grant)
		tr.NetfilterVerdictRef(&ctr[1], output, r1, drop, 0)
	})
	if a != 4 {
		t.Errorf("first uses of a syscall, a hook and two counters allocate %.0f times, want 4", a)
	}
}
