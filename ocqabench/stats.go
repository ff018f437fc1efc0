package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for an empty sample).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail returns the highest of p50, p90, p99 and p99.9 that has at least ten
// samples beyond it, and its value; ok is false below 20 samples.
func tail(xs []float64) (pct float64, v float64, ok bool) {
	for _, p := range []float64{0.999, 0.99, 0.9, 0.5} {
		if float64(len(xs))*(1-p) >= 10 {
			return p * 100, quantile(xs, p), true
		}
	}
	return 0, 0, false
}

// ms and secs convert durations for reporting.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }
