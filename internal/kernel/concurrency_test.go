package kernel

import (
	"fmt"
	"sync"
	"testing"
)

// TestTaskTableConcurrent exercises the task table under its one lock:
// concurrent fork/exit churn against concurrent pid lookups and
// snapshots, plus registry writes racing lock-free lookups. PIDs must
// stay unique and no task may be lost.
func TestTaskTableConcurrent(t *testing.T) {
	k := New(ModeProtego)
	init := k.InitTask()
	const (
		workers = 8
		iters   = 200
	)
	pids := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				child := k.Fork(init)
				pids[w] = append(pids[w], child.PID())
				if got := k.Task(child.PID()); got != child {
					t.Errorf("Task(%d) = %p, want %p", child.PID(), got, child)
					return
				}
				k.Tasks()
				if i%16 == 0 {
					// Registry writes race the lock-free reads.
					path := fmt.Sprintf("/bin/conc%d-%d", w, i)
					k.RegisterBinary(path, func(*Kernel, *Task) int { return 0 })
					if k.LookupBinary(path) == nil {
						t.Errorf("LookupBinary(%s) lost a registration", path)
						return
					}
				}
				k.SetUnprivNamespaces(i%2 == 0)
				k.UnprivNamespaces()
				if i%2 == 0 {
					k.Exit(child, 0)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	seen := make(map[int]bool)
	for _, list := range pids {
		for _, pid := range list {
			if seen[pid] {
				t.Fatalf("pid %d allocated twice", pid)
			}
			seen[pid] = true
		}
	}
	// Odd iterations left their child alive: half the forks per worker.
	want := 1 + workers*iters/2 // init + survivors
	if got := k.TaskCount(); got != want {
		t.Fatalf("TaskCount = %d, want %d", got, want)
	}
	for _, task := range k.Tasks() {
		if got := k.Task(task.PID()); got != task {
			t.Fatalf("snapshot task %d not resolvable", task.PID())
		}
	}
}
