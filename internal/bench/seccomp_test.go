package bench

import "testing"

// TestSeccompGate: arming seccomp with a full-catalog profile adds only
// the TaskSyscall check to stat and open/close. The gate counts
// allocations and lsm.syscall.allow moves, so it holds on any host load.
func TestSeccompGate(t *testing.T) {
	rep, err := MeasureSeccomp()
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]SeccompGate{"stat": rep.StatGate, "open/close": rep.OpenCloseGate} {
		if !g.Passed {
			t.Errorf("%s gate failed: %+v", name, g)
		}
		if g.ArmedAllowed != uint64(g.Calls*g.SyscallsPerOp) {
			t.Errorf("%s: lsm.syscall.allow moved %d over %d calls of %d syscalls", name, g.ArmedAllowed, g.Calls, g.SyscallsPerOp)
		}
	}
	if !rep.GatePassed {
		t.Fatal("GatePassed false")
	}
}
