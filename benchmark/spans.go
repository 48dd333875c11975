package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"time"
)

// spanTracer records one span around each call the benchmark makes into a
// layer of the program. Spans are aggregated in memory per name (count,
// total and self time, and a reservoir for the median); full records are
// kept only for every recordEvery-th request. A nil *spanTracer records
// nothing, which is how untraced rounds run.
//
// The benchmark drives the program from one goroutine, so the tracer is
// not synchronized.
type spanTracer struct {
	t0  time.Time
	rng *rand.Rand

	req    int
	keep   bool
	nextID int
	stack  []openSpan

	aggs    map[string]*spanAgg
	records []spanRecord
}

type openSpan struct {
	id, parent int
	name       string
	start      time.Time
	children   time.Duration
}

// spanRecord is one span written to the spans file. Times are
// nanoseconds since the tracer was created; Parent is 0 for a root span.
type spanRecord struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

type spanAgg struct {
	count   int
	sum     time.Duration
	self    time.Duration
	samples []float64 // reservoir of durations in ns
}

func newSpanTracer(seed int64) *spanTracer {
	return &spanTracer{
		t0:   time.Now(),
		rng:  rand.New(rand.NewSource(seed)),
		aggs: make(map[string]*spanAgg),
	}
}

// request starts the next request: the spans that follow, up to the next
// call, belong to it.
func (tr *spanTracer) request() {
	if tr == nil {
		return
	}
	tr.req++
	tr.keep = tr.req%recordEvery == 0
}

// begin opens a span nested in the innermost open one.
func (tr *spanTracer) begin(name string) {
	if tr == nil {
		return
	}
	tr.nextID++
	parent := 0
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1].id
	}
	tr.stack = append(tr.stack, openSpan{id: tr.nextID, parent: parent, name: name, start: time.Now()})
}

// end closes the innermost open span.
func (tr *spanTracer) end() {
	if tr == nil {
		return
	}
	now := time.Now()
	n := len(tr.stack) - 1
	s := tr.stack[n]
	tr.stack = tr.stack[:n]
	d := now.Sub(s.start)
	self := d - s.children
	if n > 0 {
		tr.stack[n-1].children += d
	}
	a := tr.aggs[s.name]
	if a == nil {
		a = &spanAgg{samples: make([]float64, 0, reservoirSize)}
		tr.aggs[s.name] = a
	}
	a.count++
	a.sum += d
	a.self += self
	if len(a.samples) < reservoirSize {
		a.samples = append(a.samples, float64(d))
	} else if j := tr.rng.Intn(a.count); j < reservoirSize {
		a.samples[j] = float64(d)
	}
	if tr.keep {
		tr.records = append(tr.records, spanRecord{
			ID: s.id, Parent: s.parent, Req: tr.req, Name: s.name,
			Start: int64(s.start.Sub(tr.t0)), End: int64(now.Sub(tr.t0)), Self: int64(self),
		})
	}
}

// count is the number of spans recorded under name.
func (tr *spanTracer) count(name string) int {
	if a := tr.aggs[name]; a != nil {
		return a.count
	}
	return 0
}

// medianNs is the median duration of the spans named name, from the
// reservoir.
func (tr *spanTracer) medianNs(name string) float64 {
	if a := tr.aggs[name]; a != nil {
		return median(a.samples)
	}
	return 0
}

// total is the summed duration of the spans named name.
func (tr *spanTracer) total(name string) time.Duration {
	if a := tr.aggs[name]; a != nil {
		return a.sum
	}
	return 0
}

type spanSummary struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	SumNs    int64   `json:"sum_ns"`
	SelfNs   int64   `json:"self_ns"`
	MedianNs float64 `json:"median_ns"`
}

// write stores the aggregates and the kept records of every workload's
// tracer as JSON at path.
func writeSpans(path string, tracers map[string]*spanTracer) error {
	type workloadSpans struct {
		Workload   string        `json:"workload"`
		Aggregates []spanSummary `json:"aggregates"`
		Records    []spanRecord  `json:"records"`
	}
	var out []workloadSpans
	for _, w := range sortedKeys(tracers) {
		tr := tracers[w]
		ws := workloadSpans{Workload: w, Records: tr.records}
		for _, name := range sortedKeys(tr.aggs) {
			a := tr.aggs[name]
			ws.Aggregates = append(ws.Aggregates, spanSummary{
				Name: name, Count: a.count, SumNs: int64(a.sum), SelfNs: int64(a.self), MedianNs: median(a.samples),
			})
		}
		out = append(out, ws)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
