package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure with fewer is one outlier away from a different number.
const minBeyond = 10

// quantile is one nearest-rank percentile of a sample set, with the
// sample counts that say how far it can be trusted.
type quantile struct {
	P       float64 // requested percentile, 0 < P <= 100
	Value   float64 // nearest-rank value (0 when there are no samples)
	Samples int     // sample count
	Beyond  int     // samples ranked strictly above Value
}

// OK reports whether the percentile meets the ten-samples-beyond rule.
// The median is always reportable once there is a sample.
func (q quantile) OK() bool {
	if q.Samples == 0 {
		return false
	}
	return q.P <= 50 || q.Beyond >= minBeyond
}

// percentile returns the nearest-rank p-th percentile of xs (xs is not
// modified).
func percentile(xs []float64, p float64) quantile {
	q := quantile{P: p, Samples: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps p/100*n from rounding up past an exact rank.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	q.Value = s[rank-1]
	q.Beyond = len(s) - rank
	return q
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
