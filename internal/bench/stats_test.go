package bench

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("sample: %+v", s)
	}
	// stddev = sqrt(2.5) ≈ 1.581; t(4) = 2.776; CI = 2.776*1.581/sqrt(5)
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Fatalf("CI = %v want %v", s.CI95, want)
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty: %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.CI95 != 0 {
		t.Fatalf("single: %+v", s)
	}
	s = Summarize([]float64{4, 4, 4, 4})
	if s.CI95 != 0 {
		t.Fatalf("constant sample CI: %+v", s)
	}
}

func TestOverheadAndOverlap(t *testing.T) {
	base := Sample{Mean: 100, CI95: 5}
	fast := Sample{Mean: 103, CI95: 4}
	if !base.Overlaps(fast) {
		t.Fatal("overlapping CIs reported disjoint")
	}
	far := Sample{Mean: 200, CI95: 1}
	if base.Overlaps(far) {
		t.Fatal("disjoint CIs reported overlapping")
	}
}

// Properties: the mean lies in [min, max]; CI is non-negative; shifting
// all values shifts the mean and leaves the CI unchanged.
func TestSummarizeProperties(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				continue
			}
			vals = append(vals, v)
		}
		if len(vals) < 2 || math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e9 {
			return true
		}
		s := Summarize(vals)
		if s.Mean < s.Min-1e-6 || s.Mean > s.Max+1e-6 {
			return false
		}
		if s.CI95 < 0 {
			return false
		}
		shifted := make([]float64, len(vals))
		for i, v := range vals {
			shifted[i] = v + shift
		}
		s2 := Summarize(shifted)
		return math.Abs(s2.Mean-(s.Mean+shift)) < 1e-6*math.Max(1, math.Abs(s.Mean+shift)) &&
			math.Abs(s2.CI95-s.CI95) < 1e-6*math.Max(1, s.CI95)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTQuantile(t *testing.T) {
	if !math.IsNaN(tQuantile(0)) {
		t.Fatal("df 0")
	}
	if tQuantile(1) != 12.706 {
		t.Fatal("df 1")
	}
	if tQuantile(100) != 1.96 {
		t.Fatal("large df")
	}
}
