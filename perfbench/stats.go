package main

import (
	"math"
	"sort"
)

// median is the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quantile is the linear-interpolation quantile (q in [0,1]) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minTail is the number of samples that must lie beyond a reported
// percentile for it to count as measured rather than extrapolated.
const minTail = 10

// Percentile is a latency percentile together with the evidence behind
// it: P is the percentile actually reported and N the sample count.
type Percentile struct {
	P     float64
	N     int
	Value float64
}

// supportedPercentile reports the wanted percentile of xs when at least
// minTail samples lie beyond it, and otherwise the highest percentile
// that has minTail samples beyond it (never below the median). With
// fewer than 2·minTail samples it falls back to the median.
func supportedPercentile(xs []float64, want float64) Percentile {
	n := len(xs)
	p := want
	if highest := 100 * (1 - float64(minTail)/float64(n)); n == 0 || highest < p {
		p = math.Max(50, highest)
	}
	return Percentile{P: p, N: n, Value: quantile(xs, p/100)}
}
