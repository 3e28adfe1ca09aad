package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a percentile with fewer is an anecdote, not a measurement.
const minBeyond = 10

// Pct is one reported percentile with the sample count it rests on.
// OK is false when the sample is too small for the percentile under
// the minBeyond rule; Value then holds the sample maximum.
type Pct struct {
	Value float64
	N     int
	OK    bool
}

// percentile returns the nearest-rank q-quantile of xs (q in (0,1]).
// Refused or lost jobs enter xs as +Inf, so a percentile that reaches
// them reads +Inf: they miss any latency limit.
func percentile(xs []float64, q float64) Pct {
	n := len(xs)
	if n == 0 {
		return Pct{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return Pct{Value: s[rank-1], N: n, OK: n-rank >= minBeyond}
}

// median is the middle value (mean of the two middle values for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
