package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is the rule of the choosing-metrics guide: a percentile is
// reported only when at least this many samples lie beyond it.
const tailBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of an ascending
// slice; 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile is quantile under the ten-samples-beyond rule: ok is
// false when fewer than tailBeyond samples lie above the q-quantile, in
// which case the percentile is not supported by the sample.
func tailQuantile(sorted []float64, q float64) (v float64, ok bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if len(sorted)-rank < tailBeyond {
		return 0, false
	}
	return quantile(sorted, q), true
}

// p99OrHighest is the rule behind every "p99" the harness prints: the
// 99th percentile when the sample supports it (1000 samples and more);
// with fewer, the highest percentile that still has ten samples beyond
// it (p98 at 500 samples); with too few samples for any percentile
// above the median, the slowest one — all a handful of rounds can say
// about their tail.
func p99OrHighest(sorted []float64) float64 {
	if v, ok := tailQuantile(sorted, 0.99); ok {
		return v
	}
	if n := len(sorted); n > 2*tailBeyond {
		return sorted[n-1-tailBeyond]
	}
	return quantile(sorted, 1)
}

// median of xs (mean of the two middle values for an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which the driver uses for run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// slope is the least-squares slope of ys on xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ms and us convert durations to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
