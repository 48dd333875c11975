package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"protego/internal/caps"
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

// TestCredentialsConcurrent: a task's own goroutine changes its ids while
// other goroutines read them, fork from the task and signal it.
// Credentials are replaced whole, never written in place, so every reader
// sees one state the writer stored: effective and filesystem uid agree,
// and the effective capabilities are full exactly when the euid is 0.
func TestCredentialsConcurrent(t *testing.T) {
	k := New(ModeLinux)
	init := k.InitTask()
	task := k.Fork(init)
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for killer := k.Fork(init); !stop.Load(); {
				_, _, _, _ = task.UID(), task.EUID(), task.GID(), task.EGID()
				_, _ = task.Groups(), task.Capable(caps.CAP_KILL)
				child := k.Fork(task)
				for _, c := range []*Credentials{task.Creds(), child.Creds()} {
					if c.EUID != c.FUID || c.Capable(caps.CAP_SETUID) != (c.EUID == 0) {
						t.Errorf("torn credentials %v", c)
						return
					}
				}
				k.Exit(child, 0)
				if err := k.Kill(killer, task.PID(), 0); err != nil {
					t.Errorf("kill: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		for _, err := range []error{k.Setgroups(task, []int{i}), k.Setgid(task, i),
			k.Seteuid(task, 1000), k.Seteuid(task, 0), k.Setuid(task, 0)} {
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
		task.SetUserCreds(RootCreds())
	}
}
