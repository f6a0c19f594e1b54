package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted, which must
// be ascending, by nearest rank: the smallest sample with at least the
// share p of the samples at or below it. Every value it returns was
// measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median is the 0.5-quantile by the same rule: of an even number of
// samples, the lower of the middle two.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// latencies collects per-operation durations and reports them in
// milliseconds.
type latencies []time.Duration

func (l latencies) sortedMs() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
