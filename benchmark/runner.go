package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"protego/internal/kernel"
	"protego/internal/world"
)

// Image labels. A pair op runs on a baseline/Protego pair at once.
const (
	imgProtego  = "protego"
	imgBaseline = "baseline"
	imgPair     = "pair"
)

// twoImages lists the modes of a two-image workload in image-index order.
var twoImages = []kernel.Mode{kernel.ModeProtego, kernel.ModeLinux}

func imageIndex(mode kernel.Mode) int {
	if mode == kernel.ModeProtego {
		return 0
	}
	return 1
}

func imageName(mode kernel.Mode) string { return []string{imgProtego, imgBaseline}[imageIndex(mode)] }

// imagePrefix starts the span and metric names of the baseline image.
func imagePrefix(mode kernel.Mode) string { return []string{"", "baseline."}[imageIndex(mode)] }

// options holds what tests change about a run.
type options struct {
	// breakMountPolicy grants every unprivileged mount on Protego images,
	// so the benchmark's checks must fail.
	breakMountPolicy bool
}

func (o *options) prepare(m *world.Machine) {
	if o.breakMountPolicy && m.Protego != nil {
		m.Protego.TestHookBreakMountPolicy(true)
	}
}

// instance is one set-up workload, ready for rounds.
type instance interface {
	// images names what an op runs on, by image index: both images in
	// turn, or one pair.
	images() []string
	// run executes op i of round r on image img and reports a failed
	// check of its outcome.
	run(img, r, i int) error
	// setTracer turns spans on (non-nil) or off.
	setTracer(*spanTracer)
	// check verifies the workload's invariants once the rounds are done.
	check() error
	// machines lists the machines of image img the benchmark owns.
	machines(img int) []*world.Machine
}

// arm is one series of timed rounds: one image, traced or not.
type arm struct {
	img    int
	traced bool
	span   string // the root span of each op

	rounds    []float64       // ops per CPU-second of each round, normalized
	slowdowns []float64       // the host's slowdown in each round
	lat       []time.Duration // the current round's raw op CPU times
	hist      latHist
	ops       int
	mallocs   uint64
	gcCPU     float64
	busyCPU   float64
}

// maxRounds bounds each arm's round buffer, and maxTicks the ticks of a
// round, 16 s of op time; both are allocated at set-up.
const (
	maxRounds = 4096
	maxTicks  = 4096
)

// runResult is everything one workload's run measured.
type runResult struct {
	spec      *workloadSpec
	inst      instance
	setupS    []float64
	arms      []*arm
	attempted int
	failed    int
	errs      []error   // the first failed checks, for the report
	heapInuse []float64 // live heap in bytes after each round

	tracer   *spanTracer
	ref      *refLoad
	ticks    []float64 // the current round's tick times in ns
	usage    [2]usage  // counters of the measured machines, by image index
	usageOps int       // Protego ops the usage covers
}

func (r *runResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// runWorkload sets the workload up cfg.setups times, then measures the
// last set-up for the given seconds. A traced run adds a traced arm for
// each image and an untraced Protego arm to compare it with. A set-up's
// time is the process's CPU time, normalized by the slowdown of reference
// ticks run just before and after it.
//
// The calling goroutine stays on its thread throughout, so that the
// thread's CPU clock times its ops and ticks.
func runWorkload(cfg *config, spec *workloadSpec, seed int64, seconds float64, traced bool, opts *options) (*runResult, error) {
	if err := checkCPUClocks(); err != nil {
		return nil, err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	res := &runResult{spec: spec, ref: newRefLoad(), ticks: make([]float64, 0, maxTicks)}
	for s := 0; s < cfg.setups; s++ {
		res.inst = nil
		runtime.GC()
		before := res.ref.slowdown(setupTicks)
		start := cpuTime(clockProcessCPU)
		inst, err := spec.setup(spec, seed, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
		}
		for img := range inst.images() {
			for i := 0; i < spec.WarmupOps; i++ {
				res.attempted++
				if err := inst.run(img, 0, i); err != nil {
					res.fail(err)
				}
			}
		}
		took := cpuTime(clockProcessCPU) - start
		slow := (before + res.ref.slowdown(setupTicks)) / 2
		res.setupS = append(res.setupS, took.Seconds()/slow)
		res.inst = inst
	}

	images := res.inst.images()
	for img, name := range images {
		span := "op"
		if name == imgBaseline {
			span = "baseline.op"
		}
		if !traced || img == 0 {
			res.arms = append(res.arms, newArm(img, span, false, spec.OpsPerRound))
		}
		if traced {
			res.arms = append(res.arms, newArm(img, span, true, spec.OpsPerRound))
		}
	}
	res.heapInuse = make([]float64, 0, maxRounds*len(res.arms))
	minSamples := cfg.minSamples
	if traced {
		res.tracer = newSpanTracer(seed)
		minSamples = 0
	}

	for img := range images {
		for _, m := range res.inst.machines(img) {
			res.usage[img].add(m, -1)
		}
	}
	res.measure(cfg, seconds, minSamples)
	for img := range images {
		for _, m := range res.inst.machines(img) {
			res.usage[img].add(m, 1)
		}
	}
	for _, a := range res.arms {
		if a.img == 0 {
			res.usageOps += a.ops
		}
	}
	if err := res.inst.check(); err != nil {
		res.fail(fmt.Errorf("%s: end of workload: %w", spec.Name, err))
	}
	return res, nil
}

func newArm(img int, span string, traced bool, ops int) *arm {
	return &arm{
		img: img, span: span, traced: traced,
		rounds: make([]float64, 0, maxRounds), slowdowns: make([]float64, 0, maxRounds),
		lat: make([]time.Duration, ops),
	}
}

// measure runs rounds of every arm in ABBA order until seconds have passed
// and each arm has its minimum rounds and samples, or maxSeconds pass.
func (r *runResult) measure(cfg *config, seconds float64, minSamples int) {
	start := time.Now()
	cpu := newCPUReader()
	n := len(r.arms)
	order := abbaOrder(n, 2)
	for block := 0; ; block++ {
		for _, ai := range order[n*(block%2) : n*(block%2+1)] {
			r.round(r.arms[ai], cpu)
		}
		elapsed := time.Since(start).Seconds()
		done := elapsed >= seconds
		for _, a := range r.arms {
			if len(a.rounds) == maxRounds {
				return
			}
			if len(a.rounds) < cfg.minRounds || a.hist.n < minSamples {
				done = false
			}
		}
		if done || elapsed >= maxSeconds {
			return
		}
	}
}

// round runs one timed round of a's image, with a reference tick every
// refEvery of op time, up to maxTicks. Each op's latency is the thread's
// CPU time from the end of the previous op or tick to its own end. The
// round's throughput is its ops over the process's CPU time less the
// ticks', which counts the garbage collector's work on other threads. The
// round's throughput and latencies are normalized by the slowdown its
// ticks measured.
func (r *runResult) round(a *arm, cpu *cpuReader) {
	n := r.spec.OpsPerRound
	roundNo := len(a.rounds)
	var tr *spanTracer
	if a.traced {
		tr = r.tracer
	}
	r.inst.setTracer(tr)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	gc0, busy0 := cpu.read()

	var opTime, tickTime time.Duration
	ticks := r.ticks[:0]
	proc0 := cpuTime(clockProcessCPU)
	prev := cpuTime(clockThreadCPU)
	for i := 0; i < n; i++ {
		if opTime >= time.Duration(len(ticks))*refEvery && len(ticks) < cap(ticks) {
			t := r.ref.tick()
			ticks = append(ticks, float64(t))
			tickTime += t
			prev = cpuTime(clockThreadCPU)
		}
		tr.request()
		tr.begin(a.span)
		err := r.inst.run(a.img, roundNo, i)
		tr.end()
		now := cpuTime(clockThreadCPU)
		a.lat[i] = now - prev
		opTime += a.lat[i]
		prev = now
		if err != nil {
			r.fail(err)
		}
	}
	procTime := cpuTime(clockProcessCPU) - proc0 - tickTime
	r.inst.setTracer(nil)
	// Throughput is a mean over the round's time, so it is scaled by the
	// mean slowdown. Contention comes in bursts, which the median op
	// escapes unless they fill most of the round, so latencies are scaled
	// by the median tick's.
	slow, typical := slowdowns(ticks)
	for _, d := range a.lat[:n] {
		a.hist.record(time.Duration(float64(d) / typical))
	}

	// The runtime's CPU estimates advance only when a GC ends, so the
	// round's garbage is collected before they are read.
	runtime.GC()
	gc1, busy1 := cpu.read()
	runtime.ReadMemStats(&ms)
	a.mallocs += ms.Mallocs - mallocs
	a.gcCPU += gc1 - gc0
	a.busyCPU += busy1 - busy0
	a.rounds = append(a.rounds, slow*float64(n)/procTime.Seconds())
	a.slowdowns = append(a.slowdowns, slow)
	a.ops += n
	r.attempted += n
	r.heapInuse = append(r.heapInuse, float64(ms.HeapInuse))
}

// gcShare is the share of the busy CPU time of all timed rounds that the
// garbage collector took.
func (r *runResult) gcShare() float64 {
	var gc, busy float64
	for _, a := range r.arms {
		gc += a.gcCPU
		busy += a.busyCPU
	}
	return gc / busy
}

// traceOverheadPct compares the median throughput of the traced and the
// untraced Protego (or pair) arm.
func (r *runResult) traceOverheadPct() float64 {
	var plain, traced float64
	for _, a := range r.arms {
		if a.img != 0 {
			continue
		}
		if a.traced {
			traced = median(a.rounds)
		} else {
			plain = median(a.rounds)
		}
	}
	return 100 * (1 - traced/plain)
}

// cpuReader reads the runtime's estimate of GC and busy CPU time.
type cpuReader struct {
	samples []metrics.Sample
}

func newCPUReader() *cpuReader {
	return &cpuReader{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}}
}

func (c *cpuReader) read() (gc, busy float64) {
	metrics.Read(c.samples)
	gc = c.samples[0].Value.Float64()
	return gc, gc + c.samples[1].Value.Float64()
}
