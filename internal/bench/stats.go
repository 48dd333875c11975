package bench

import "math"

// Sample summarizes repeated measurements the way the paper reports them:
// mean and 95% confidence interval ("We report the mean and 95% confidence
// intervals", §5.1).
type Sample struct {
	N    int
	Mean float64
	// CI95 is the half-width of the 95% confidence interval of the mean.
	CI95 float64
	Min  float64
	Max  float64
}

// tTable holds two-sided 97.5% quantiles of Student's t distribution for
// small sample sizes (df 1..30); larger samples use the normal 1.96.
var tTable = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tQuantile(df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if df <= len(tTable) {
		return tTable[df-1]
	}
	return 1.96
}

// Summarize computes a Sample from raw measurements.
func Summarize(values []float64) Sample {
	s := Sample{N: len(values)}
	if s.N == 0 {
		return s
	}
	s.Min = values[0]
	s.Max = values[0]
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N < 2 {
		return s
	}
	var sq float64
	for _, v := range values {
		d := v - s.Mean
		sq += d * d
	}
	stddev := math.Sqrt(sq / float64(s.N-1))
	s.CI95 = tQuantile(s.N-1) * stddev / math.Sqrt(float64(s.N))
	return s
}

// Overlaps reports whether two samples' confidence intervals overlap —
// the paper's criterion for "we believe [the differences] are noise".
func (s Sample) Overlaps(o Sample) bool {
	lo1, hi1 := s.Mean-s.CI95, s.Mean+s.CI95
	lo2, hi2 := o.Mean-o.CI95, o.Mean+o.CI95
	return lo1 <= hi2 && lo2 <= hi1
}
