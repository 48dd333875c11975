package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// Values from Python's statistics.median and quantiles(xs, n=4).
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90}, 50, 25, 75},
	} {
		if got := median(tc.xs); got != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("input reordered: %v", xs)
	}
}

// nearestRank is the exact nearest-rank percentile the histogram must
// agree with.
func nearestRank(xs []float64, p float64) (v float64, ok bool) {
	rank, ok := percentileRank(len(xs), p)
	if !ok {
		return 0, false
	}
	return sortedCopy(xs)[rank-1], true
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 500}, {99, 990}, {0.01, 1}, {1, 10}} {
		got, ok := nearestRank(xs, tc.p)
		if !ok || got != tc.want {
			t.Errorf("p%v = %v, %v; want %v", tc.p, got, ok, tc.want)
		}
	}
}

// A percentile needs minBeyond samples past it: p99 needs 1000 samples,
// and with fewer it is refused rather than read off a handful of outliers.
func TestPercentileRefusedBelowTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{999, 99, false}, {1000, 99, true}, {5000, 99, true},
		{19, 50, false}, {20, 50, true}, {0, 50, false},
	} {
		xs := make([]float64, tc.n)
		var h latHist
		for i := range xs {
			xs[i] = float64(i)
			h.record(time.Duration(i))
		}
		if _, ok := nearestRank(xs, tc.p); ok != tc.ok {
			t.Errorf("nearestRank n=%d p%v ok=%v, want %v", tc.n, tc.p, ok, tc.ok)
		}
		if _, ok := h.percentile(tc.p); ok != tc.ok {
			t.Errorf("histogram n=%d p%v ok=%v, want %v", tc.n, tc.p, ok, tc.ok)
		}
	}
}

// The histogram's nearest-rank percentile lands within one bucket (under
// 1%) of the exact one.
func TestHistogramPercentileMatchesExact(t *testing.T) {
	var h latHist
	var xs []float64
	v := int64(1)
	for i := 0; i < 20000; i++ {
		v = (v*7919 + 17) % 5_000_003
		ns := 300 + v%200_000
		h.record(time.Duration(ns))
		xs = append(xs, float64(ns))
	}
	for _, p := range []float64{50, 90, 99} {
		exact, _ := nearestRank(xs, p)
		got, ok := h.percentile(p)
		if !ok || math.Abs(got-exact)/exact > 1.0/subBuckets {
			t.Errorf("p%v = %v, exact %v", p, got, exact)
		}
	}
	for _, ns := range []int64{0, 1, 127, 128, 129, 1000, 123456789} {
		b := histBucket(ns)
		if mid := histMid(b); math.Abs(mid-float64(ns)) > float64(ns)/subBuckets+1 {
			t.Errorf("bucket of %d has midpoint %v", ns, mid)
		}
	}
}

func TestABBAOrder(t *testing.T) {
	if got, want := abbaOrder(2, 3), []int{0, 1, 1, 0, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("two arms: %v, want %v", got, want)
	}
	if got, want := abbaOrder(3, 2), []int{0, 1, 2, 2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("three arms: %v, want %v", got, want)
	}
	if got := abbaOrder(1, 3); !reflect.DeepEqual(got, []int{0, 0, 0}) {
		t.Errorf("one arm: %v", got)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"clear gain", shift(10), true, 0.1, verdictBetter},
		{"gain on a lower-is-better metric", shift(-10), false, 0.1, verdictBetter},
		{"within the bound", shift(-5), true, 0.1, verdictSame},
		{"regression past the bound", shift(-20), true, 0.1, verdictWorse},
		{"noisy change", []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, true, 0.1, verdictUnresolved},
	} {
		if got := verdict(parent, tc.change, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	// fail_ratio has bound 0: any failure where the parent had none is a
	// regression.
	zeros := make([]float64, 10)
	if got := verdict(zeros, zeros, false, 0); got != verdictSame {
		t.Errorf("no failures on either side: %s", got)
	}
	failing := make([]float64, 10)
	for i := range failing {
		failing[i] = 0.01
	}
	if got := verdict(zeros, failing, false, 0); got != verdictWorse {
		t.Errorf("new failures: %s", got)
	}
}
