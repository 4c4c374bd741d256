package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method), 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder are the percentiles a tail may be reported at. It stops
// at p95: a tail must stay at one percentile when a faster program
// completes more requests in the same time, or a speed-up would read as
// a slower p99. Hits (about 240 a run) are read at p95, edits (about
// 120) at p90. Hit latency is bimodal, alone or beside a search, and
// p95 lies inside the upper mode where p90 sat on the edge between the
// two and jumped from run to run.
var tailLadder = []float64{0.95, 0.9, 0.5}

// tail returns the highest ladder percentile that has at least ten
// samples beyond it, and its value.
func tail(xs []float64) (p, v float64) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(1-p) >= 10 {
			return p, quantile(xs, p)
		}
	}
	return 0.5, median(xs)
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
