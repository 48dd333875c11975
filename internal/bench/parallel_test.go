package bench

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestParallelSuiteSmoke runs every parallel test's per-worker ops a few
// iterations with two workers — setup failures (a bad fixture, a denied
// mount) surface here instead of mid-sweep.
func TestParallelSuiteSmoke(t *testing.T) {
	for _, test := range ParallelSuite() {
		test := test
		t.Run(test.Name, func(t *testing.T) {
			ops, err := test.Setup(2)
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			if len(ops) != 2 {
				t.Fatalf("got %d ops, want 2", len(ops))
			}
			for w, op := range ops {
				for i := 0; i < 3; i++ {
					if err := op(i); err != nil {
						t.Fatalf("worker %d iter %d: %v", w, i, err)
					}
				}
			}
		})
	}
}

// benchmarkParallel runs the named suite entry under b.RunParallel; each
// of the GOMAXPROCS-many goroutines gets its own worker state.
func benchmarkParallel(b *testing.B, name string) {
	var test ParallelTest
	for _, pt := range ParallelSuite() {
		if pt.Name == name {
			test = pt
		}
	}
	if test.Setup == nil {
		b.Fatalf("no parallel test %q", name)
	}
	workers := runtime.GOMAXPROCS(0)
	ops, err := test.Setup(workers)
	if err != nil {
		b.Fatalf("setup: %v", err)
	}
	for _, op := range ops { // warm outside the timed region
		if err := op(0); err != nil {
			b.Fatalf("warmup: %v", err)
		}
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		op := ops[int(next.Add(1)-1)%workers]
		for i := 0; pb.Next(); i++ {
			if err := op(i); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkParallelStatDcacheHit(b *testing.B) { benchmarkParallel(b, "stat-dcache-hit") }
func BenchmarkParallelOpenClose(b *testing.B)     { benchmarkParallel(b, "open-close") }
func BenchmarkParallelMountWhitelistCheck(b *testing.B) {
	benchmarkParallel(b, "mount-whitelist-check")
}
func BenchmarkParallelNetfilterVerdict(b *testing.B) { benchmarkParallel(b, "netfilter-verdict") }
func BenchmarkParallelSudoDelegation(b *testing.B)   { benchmarkParallel(b, "sudo-delegation") }
func BenchmarkParallelMountFlow(b *testing.B)        { benchmarkParallel(b, "figure1-mount-flow") }

// TestMountFlowAllocs pins the Figure 1 flow's allocations: one mount and
// one umount through the real binaries on an unchanged fstab. mount(8)
// finds its fstab entry in the file system's parse memo instead of
// re-parsing the file (83 allocations before the memo).
func TestMountFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through fmt vary under -race")
	}
	const want = 57
	ops, err := setupMountFlow(1)
	if err != nil {
		t.Fatal(err)
	}
	var opErr error
	a := testing.AllocsPerRun(100, func() {
		if err := ops[0](0); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	if a > want {
		t.Errorf("%v allocs per mount and umount, want at most %d", a, want)
	}
}
