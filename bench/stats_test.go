package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	// p99 of n samples leaves n - ceil(0.99n) beyond it: 9 at n=999, 10
	// at n=1000.
	if _, ok := tailQuantile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples has 9 samples beyond it and must be refused")
	}
	v, ok := tailQuantile(seq(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := tailQuantile(nil, 0.99); ok {
		t.Error("empty sample supports no percentile")
	}
	// The median of 20 samples has exactly ten beyond it; of 19, nine.
	if _, ok := tailQuantile(seq(20), 0.5); !ok {
		t.Error("median of 20 samples has ten beyond it")
	}
	if _, ok := tailQuantile(seq(19), 0.5); ok {
		t.Error("median of 19 samples has only nine beyond it and must be refused")
	}
}

func TestP99OrHighest(t *testing.T) {
	if got := p99OrHighest(seq(2000)); got != 1980 {
		t.Errorf("2000 samples: got %v, want the p99 1980", got)
	}
	// 500 samples: the highest percentile with ten beyond is the 490th.
	if got := p99OrHighest(seq(500)); got != 490 {
		t.Errorf("500 samples: got %v, want 490", got)
	}
	// A handful of rounds: the slowest.
	if got := p99OrHighest(seq(6)); got != 6 {
		t.Errorf("6 samples: got %v, want the maximum 6", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSlopeAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11}
	if got := slope(xs, ys); math.Abs(got-2) > 1e-12 {
		t.Errorf("slope = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
