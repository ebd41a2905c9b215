package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples lie beyond the reported tail.
const tailBeyond = 10

// quantile returns the nearest-rank p-quantile of sorted values: the
// value at rank ceil(p·n). It returns NaN for no values.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// latencySummary is the latency view of one run.
type latencySummary struct {
	p50 float64
	// tail is the highest percentile with tailBeyond samples beyond it,
	// tailP that percentile (0.99 for p99) and n the sample count,
	// failed flows included.
	tailP, tail float64
	n           int
}

// summarizeLatency computes the median and the tail: the sample at rank
// n−tailBeyond, the highest percentile that still has tailBeyond samples
// beyond it. Unlike a fixed ladder of percentiles it moves smoothly with
// the sample count, so a closed loop that completes a few more or fewer
// flows does not jump from p95 to p99. A failed flow counts as a sample
// beyond every percentile (+Inf). With too few samples the tail is the
// median.
func summarizeLatency(ms []float64, failed int) latencySummary {
	all := make([]float64, 0, len(ms)+failed)
	all = append(all, ms...)
	for i := 0; i < failed; i++ {
		all = append(all, math.Inf(1))
	}
	sort.Float64s(all)
	n := len(all)
	s := latencySummary{p50: quantile(all, 0.5), tailP: 0.5, n: n}
	s.tail = s.p50
	if rank := n - tailBeyond; rank > n/2 {
		s.tailP, s.tail = float64(rank)/float64(n), all[rank-1]
	}
	return s
}

// median returns the median of values (mean of the middle pair for an
// even count) or NaN for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
