package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{{5, 50}, {20, 50}, {40, 75}, {100, 90}, {120, 91}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		// At least ten samples lie beyond the percentile once n ≥ 20.
		if c.n >= 20 && c.n-c.n*c.want/100 < 10 {
			t.Errorf("n=%d: p%d leaves fewer than ten samples beyond it", c.n, c.want)
		}
	}
}

func TestHDQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := hdQuantile(xs, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("HD median of 1..5 = %v, want 3 (symmetric weights)", got)
	}
	// Two tight clusters of equal size: the median lies between them,
	// not on either edge.
	var two []float64
	for i := 0; i < 50; i++ {
		two = append(two, 10+float64(i)*1e-3, 20+float64(i)*1e-3)
	}
	if got := hdQuantile(two, 0.5); got < 14 || got > 16 {
		t.Errorf("HD median of two clusters = %v, want about 15", got)
	}
	if got := hdQuantile(two, 0.99); got < 19.9 || got > 20.1 {
		t.Errorf("HD p99 = %v, want inside the upper cluster", got)
	}
}
