package bench

import (
	"math"
	"testing"
	"testing/quick"
)

// ranks returns the values n, n-1, ..., 1: medianCI must not care about
// their order.
func ranks(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(n - i)
	}
	return vals
}

func TestMedianCIBasics(t *testing.T) {
	vals := ranks(20)
	// The median of 1..20 is 10.5; the 95% CI is the 6th to the 15th value.
	if med, ci := medianCI(vals); med != 10.5 || ci != [2]float64{6, 15} {
		t.Fatalf("median %v CI %v, want 10.5 [6 15]", med, ci)
	}
	if vals[0] != 20 {
		t.Fatal("medianCI reordered its argument")
	}
}

func TestMedianCIDegenerate(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		med  float64
		ci   [2]float64
	}{
		{nil, 0, [2]float64{}},
		{[]float64{7}, 7, [2]float64{7, 7}},
		{[]float64{3, 1, 2}, 2, [2]float64{1, 3}}, // too few values: the range
		{[]float64{4, 4, 4, 4, 4, 4, 4, 4}, 4, [2]float64{4, 4}},
	} {
		if med, ci := medianCI(c.vals); med != c.med || ci != c.ci {
			t.Errorf("medianCI(%v) = %v %v, want %v %v", c.vals, med, ci, c.med, c.ci)
		}
	}
}

// TestMedianCIRanks checks the CI's lower rank k against the exact
// binomial sums: P(count < k) is at most 2.5% and P(count < k+1) is more.
func TestMedianCIRanks(t *testing.T) {
	for n, k := range map[int]int{6: 1, 8: 1, 9: 2, 12: 3, 20: 6, 40: 14} {
		if _, ci := medianCI(ranks(n)); ci != [2]float64{float64(k), float64(n + 1 - k)} {
			t.Errorf("n=%d: CI %v, want ranks %d and %d", n, ci, k, n+1-k)
		}
	}
}

// Properties: the CI lies within the sample's range and contains the
// median, and shifting every value shifts the median and the CI alike.
func TestMedianCIProperties(t *testing.T) {
	f := func(raw []int32, shift int32) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		shifted := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			vals[i], shifted[i] = float64(v), float64(v)+float64(shift)
			lo, hi = math.Min(lo, vals[i]), math.Max(hi, vals[i])
		}
		med, ci := medianCI(vals)
		med2, ci2 := medianCI(shifted)
		d := float64(shift)
		return lo <= ci[0] && ci[0] <= med && med <= ci[1] && ci[1] <= hi &&
			med2 == med+d && ci2 == [2]float64{ci[0] + d, ci[1] + d}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOverheadAndOverlap: a row's overhead is the relative difference of
// its medians, and it is noise exactly when the two CIs overlap.
func TestOverheadAndOverlap(t *testing.T) {
	var r Row
	r.Linux, r.LinuxCI = medianCI(ranks(21)) // median 11, CI [6, 16]
	r.Protego, r.ProtegoCI = medianCI(append(ranks(21), 22))
	if oh := r.OverheadPct(); oh != 100.0/22 || !r.Noise() {
		t.Fatalf("overhead %v, noise %v for CIs %v and %v", oh, r.Noise(), r.LinuxCI, r.ProtegoCI)
	}
	r.ProtegoCI[0] = r.LinuxCI[1] + 1
	if r.Noise() {
		t.Fatalf("disjoint CIs %v and %v reported overlapping", r.LinuxCI, r.ProtegoCI)
	}
}
