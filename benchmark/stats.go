package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: with fewer, the value rests on a handful of
// outliers and is refused rather than printed.
const minBeyond = 10

// median returns the median of xs (the mean of the middle two for an even
// count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4). A single
// value is its own quartiles; an empty slice gives NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentileRank is the 1-based nearest rank of the p-th percentile among
// n samples, with ok false when fewer than minBeyond samples lie beyond it.
func percentileRank(n int, p float64) (rank int, ok bool) {
	if n == 0 {
		return 0, false
	}
	rank = int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return rank, n-rank >= minBeyond
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// abbaOrder returns the arm index of each of blocks*arms rounds: each
// block runs every arm once, alternately forwards and backwards
// (A,B,B,A,A,B,...), so drift in the host cancels across arms.
func abbaOrder(arms, blocks int) []int {
	out := make([]int, 0, arms*blocks)
	for b := 0; b < blocks; b++ {
		for i := 0; i < arms; i++ {
			if b%2 == 0 {
				out = append(out, i)
			} else {
				out = append(out, arms-1-i)
			}
		}
	}
	return out
}

// latHist is a log-linear latency histogram: every power of two is split
// into subBuckets linear buckets, so a recorded value is known to within
// 1/subBuckets of itself. Its size is fixed, so recording never allocates.
type latHist struct {
	counts [histBuckets]uint64
	n      int
}

const (
	subBits     = 7
	subBuckets  = 1 << subBits
	histBuckets = (64 - subBits + 1) * subBuckets
)

func histBucket(ns int64) int {
	if ns < subBuckets {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 - subBits
	return (e+1)*subBuckets + int(ns>>uint(e)) - subBuckets
}

// histMid is the midpoint of bucket i in nanoseconds.
func histMid(i int) float64 {
	if i < subBuckets {
		return float64(i)
	}
	e := i/subBuckets - 1
	low := int64(i%subBuckets+subBuckets) << uint(e)
	return float64(low) + float64(int64(1)<<uint(e)-1)/2
}

func (h *latHist) record(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

// percentile returns the nearest-rank p-th percentile in nanoseconds.
func (h *latHist) percentile(p float64) (ns float64, ok bool) {
	rank, ok := percentileRank(h.n, p)
	if !ok {
		return 0, false
	}
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return histMid(i), true
		}
	}
	return 0, false
}
