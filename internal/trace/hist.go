package trace

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log-spaced latency buckets: bucket i counts
// durations in [2^i, 2^(i+1)) nanoseconds, so the histogram spans 1ns up to
// ~34s (2^35 ns) with one final overflow bucket — wide enough for any
// simulated syscall and cheap enough to keep per syscall name.
const histBuckets = 36

// Histogram is a lock-free log-spaced latency histogram. All fields are
// updated with atomics; snapshots are read without stopping writers. The
// sample count is the sum of the buckets, so an observation costs one
// atomic add fewer and a snapshot's count always matches its buckets.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketOf(d)].Add(1)
	h.sumNs.Add(d.Nanoseconds())
	for {
		old := h.maxNs.Load()
		if d.Nanoseconds() <= old || h.maxNs.CompareAndSwap(old, d.Nanoseconds()) {
			break
		}
	}
}

// HistStats is a point-in-time summary of a histogram.
type HistStats struct {
	Count uint64
	// MeanNs, P50Ns, P95Ns, P99Ns, MaxNs are nanoseconds; the quantiles
	// are bucket-interpolated (geometric midpoint of the landing bucket).
	MeanNs float64
	P50Ns  float64
	P95Ns  float64
	P99Ns  float64
	MaxNs  int64
	// Buckets holds the per-bucket counts for consumers that want the
	// full shape (index i covers [2^i, 2^(i+1)) ns).
	Buckets [histBuckets]uint64
}

// Stats summarizes the histogram.
func (h *Histogram) Stats() HistStats {
	var s HistStats
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
		s.Count += s.Buckets[i]
	}
	s.MaxNs = h.maxNs.Load()
	if s.Count == 0 {
		return s
	}
	s.MeanNs = float64(h.sumNs.Load()) / float64(s.Count)
	s.P50Ns = quantile(s.Buckets[:], s.Count, 0.50)
	s.P95Ns = quantile(s.Buckets[:], s.Count, 0.95)
	s.P99Ns = quantile(s.Buckets[:], s.Count, 0.99)
	return s
}

// quantile returns the bucket-interpolated q-quantile in nanoseconds.
func quantile(buckets []uint64, total uint64, q float64) float64 {
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range buckets {
		cum += c
		if cum >= target {
			lo := float64(uint64(1) << uint(i))
			return lo * math.Sqrt2 // geometric midpoint of [2^i, 2^(i+1))
		}
	}
	return float64(uint64(1) << uint(len(buckets)-1))
}

// String renders "count mean/p50/p99/max".
func (s HistStats) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		s.Count, fmtNs(s.MeanNs), fmtNs(s.P50Ns), fmtNs(s.P95Ns), fmtNs(s.P99Ns), fmtNs(float64(s.MaxNs)))
}

// Sparkline renders the occupied bucket range as a compact bar string, the
// ftrace-histogram look: one glyph per bucket between the first and last
// non-empty bucket.
func (s HistStats) Sparkline() string {
	glyphs := []rune("▁▂▃▄▅▆▇█")
	first, last := -1, -1
	var peak uint64
	for i, c := range s.Buckets {
		if c > 0 {
			if first < 0 {
				first = i
			}
			last = i
			if c > peak {
				peak = c
			}
		}
	}
	if first < 0 {
		return ""
	}
	out := make([]rune, 0, last-first+1)
	for i := first; i <= last; i++ {
		c := s.Buckets[i]
		if c == 0 {
			out = append(out, ' ')
			continue
		}
		idx := int(float64(len(glyphs)-1) * float64(c) / float64(peak))
		out = append(out, glyphs[idx])
	}
	return string(out)
}

// fmtNs renders nanoseconds with an adaptive unit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
