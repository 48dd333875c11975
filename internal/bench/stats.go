package bench

import (
	"math"
	"slices"
)

// medianCI returns the median of vals and a 95% confidence interval for
// it from order statistics: the k-th smallest and k-th largest values,
// with k the largest rank at which a Binomial(n, 1/2) count falls below
// k with probability at most 2.5%. For 20 values that is the 6th and the
// 15th (95.9% coverage). Unlike a Student-t interval around the mean, it
// assumes nothing of the distribution's shape, and a few slow rounds
// (a GC, a preemption) move neither end. With fewer than six values no
// rank qualifies and the interval is the range. The binomial terms
// underflow beyond about a thousand values.
func medianCI(vals []float64) (med float64, ci [2]float64) {
	n := len(vals)
	if n == 0 {
		return 0, ci
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	med = (s[(n-1)/2] + s[n/2]) / 2
	k, below, p := 0, 0.0, math.Pow(0.5, float64(n)) // p = P(count == k)
	for k < n/2 && below+p <= 0.025 {
		below += p
		p *= float64(n-k) / float64(k+1)
		k++
	}
	k = max(k, 1)
	return med, [2]float64{s[k-1], s[n-k]}
}
