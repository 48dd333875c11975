package trace

import (
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
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				tr.SyscallExit(tr.SyscallEnterNo(7, getpid, 1, 0), nil)
				tr.SyscallExit(tr.SyscallEnter("getpid", 1, 0), nil)
				tr.HookDecision(&hook, mountCheck, 1, 0, symGrant, protego, nil, Now())
				tr.CountDecisionRef(&grant, "MountCheck", "protego", "grant")
				tr.CountDecisionRef(nil, "MountCheck", "protego", "grant")
				tr.NetfilterVerdictRef(&nfDrop, "OUTPUT", "r1", "DROP", 0)
				tr.AuthCheckRef(&authOK, "password", "alice", 1, 0, true)
			}
		}()
	}
	wg.Wait()
	const n = writers * calls
	if got := tr.Histogram("getpid").Count; got != 2*n {
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
		tr.CountDecisionRef(&grant, "MountCheck", "protego", "grant")
		tr.NetfilterVerdictRef(&nfDrop, "OUTPUT", "r1", "DROP", 0)
		tr.AuthCheckRef(&authOK, "password", "alice", 1, 0, true)
	}); a != 0 {
		t.Errorf("resolved producers allocate %.0f times per round", a)
	}
}
