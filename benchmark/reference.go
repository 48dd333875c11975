package main

import (
	"fmt"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// Every timing the benchmark reports is CPU time at a reference speed.
//
// The host that runs the benchmark is shared, and two kinds of load from
// other tenants reach it. Some take the CPU away: the vCPU or the
// benchmark's thread waits while another runs. Wall time counts those
// waits and CPU time does not: a tick of the guest's scheduler or a steal
// of the vCPU by the host (with paravirtualized steal accounting) is not
// charged to the benchmark. Others slow the CPU down while the benchmark
// runs, through a shared core, cache or clock, and CPU time counts that.
// On a 2-vCPU Firecracker VM this second kind moved a fixed loop of pure
// Go by 10-15% from minute to minute, and CPU time alone did not narrow the
// benchmark's spread.
//
// So a reference load runs interleaved with the ops: a fixed amount of Go
// work the program does not share, timed in the thread's CPU time as a
// tick. A round's slowdown is its mean tick time over refNominal, and its
// throughput is multiplied by it; its latencies are divided by the median
// tick time over refNominal.
//
// The load is allocation-free, so the garbage collector never runs on its
// behalf and a change to the program's heap cannot move it. Its data
// takes about 50 KB, which the program's 4 ms of work between two ticks
// evicts from the caches in any case, so a change to the program's own
// cache footprint barely moves a tick. Its mix of string-keyed map
// lookups, a pointer-linked tree walk with string compares, an index chase
// and a small sort resembles the program's own work, so contention slows
// both alike.

// refNominal is about the mean tick time, interleaved with the
// workloads, on a 2-vCPU Firecracker VM (Intel Xeon, Go 1.24). It only
// sets the scale of the normalized timings: changing it rescales every
// reported time, so it stays fixed.
const refNominal = 200 * time.Microsecond

// refEvery is how much op time passes between two ticks; a tick takes
// about a twentieth of it.
const refEvery = 4 * time.Millisecond

// setupTicks is how many ticks run before and after each set-up to
// normalize its time.
const setupTicks = 16

// Clock ids of clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

// readCPUClock reads a CPU-time clock. Neither clock has a vDSO fast path,
// so a read is a system call of about 0.3 µs; it never blocks, so it is
// made raw, without the scheduler's bookkeeping.
func readCPUClock(clock uintptr) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", clock, e)
	}
	return time.Duration(ts.Nano()), nil
}

// checkCPUClocks reads both clocks once, so that cpuTime may ignore errors.
func checkCPUClocks() error {
	for _, c := range []uintptr{clockProcessCPU, clockThreadCPU} {
		if _, err := readCPUClock(c); err != nil {
			return err
		}
	}
	return nil
}

// cpuTime reads a clock that checkCPUClocks has read: with a valid clock
// id and buffer, clock_gettime cannot fail.
func cpuTime(clock uintptr) time.Duration {
	d, _ := readCPUClock(clock)
	return d
}

const refKeys = 256

type refNode struct {
	key         string
	left, right *refNode
}

// refLoad is the reference load, with its data built once per run.
type refLoad struct {
	keys  []string
	index map[string]int
	root  *refNode
	cycle []int32
	ints  [256]int
	buf   [256]int
	pos   int32
	sink  int
}

func newRefLoad() *refLoad {
	r := &refLoad{index: make(map[string]int, refKeys), cycle: make([]int32, 4096)}
	state := uint64(1)
	rnd := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for i := 0; i < refKeys; i++ {
		k := "/usr/share/reference/" + strconv.Itoa(i*7919)
		r.keys = append(r.keys, k)
		r.index[k] = i
	}
	for _, i := range permutation(refKeys, rnd) {
		p := &r.root
		for *p != nil {
			if r.keys[i] < (*p).key {
				p = &(*p).left
			} else {
				p = &(*p).right
			}
		}
		*p = &refNode{key: r.keys[i]}
	}
	order := permutation(len(r.cycle), rnd)
	for i, v := range order {
		r.cycle[v] = int32(order[(i+1)%len(order)])
	}
	for i := range r.ints {
		r.ints[i] = rnd(1 << 30)
	}
	return r
}

func permutation(n int, rnd func(int) int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rnd(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// tick runs one fixed unit of the reference load and returns the CPU
// time the calling thread spent on it.
func (r *refLoad) tick() time.Duration {
	start := cpuTime(clockThreadCPU)
	j, x := r.pos, 0
	for rep := 0; rep < 8; rep++ {
		for i := 0; i < 500; i++ {
			j = r.cycle[j]
		}
		for i := 0; i < 100; i++ {
			x += r.index[r.keys[(int(j)+i*31)%refKeys]]
		}
		for i := 0; i < 50; i++ {
			k := r.keys[(int(j)+i*131)%refKeys]
			n := r.root
			for n.key != k {
				if k < n.key {
					n = n.left
				} else {
					n = n.right
				}
			}
			x += len(n.key)
		}
		r.buf = r.ints
		r.buf[int(j)%len(r.buf)] = x
		sort.Ints(r.buf[:])
	}
	r.pos = j
	r.sink += x + r.buf[int(j)%len(r.buf)]
	return cpuTime(clockThreadCPU) - start
}

// slowdown runs n ticks and returns their mean time over refNominal.
func (r *refLoad) slowdown(n int) float64 {
	var d time.Duration
	for i := 0; i < n; i++ {
		d += r.tick()
	}
	return float64(d) / float64(n) / float64(refNominal)
}

// slowdowns returns the mean and the median of tick times in ns over
// refNominal. It sorts ticks in place, so it does not allocate.
func slowdowns(ticks []float64) (mean, median float64) {
	var sum float64
	for _, t := range ticks {
		sum += t
	}
	sort.Float64s(ticks)
	n := len(ticks)
	return sum / float64(n) / float64(refNominal), (ticks[(n-1)/2] + ticks[n/2]) / 2 / float64(refNominal)
}
