package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: fewer, and the percentile is set by a handful of
// outliers and does not repeat from run to run.
const minBeyond = 10

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// percentile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie above it. xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := rank(len(s), q)
	return s[i], len(s)-1-i >= minBeyond
}

// median is the nearest-rank median. It is reported at any sample
// count, with the count beside it.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts a duration without truncation: a phase that takes 80µs
// reads 0.08 ms, never 0.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
