package main

import (
	"math"
	"testing"
)

func TestQuantileKnownInputs(t *testing.T) {
	for _, c := range []struct {
		name    string
		samples []float64
		q, want float64
	}{
		{"n=1 median", []float64{7}, 0.5, 7},
		{"n=1 p99", []float64{7}, 0.99, 7},
		{"n=1 p0", []float64{7}, 0, 7},
		{"odd median", []float64{3, 1, 2}, 0.5, 2},
		{"even median interpolates", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"p90 of 1..11", []float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.9, 10},
		{"p90 interpolates", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
		{"p99 of 1..100", seq(100), 0.99, 99.01},
		{"max", []float64{5, 9, 1}, 1, 9},
		{"min", []float64{5, 9, 1}, 0, 1},
		{"all tied", []float64{2, 2, 2, 2}, 0.99, 2},
		{"tied run at median", []float64{1, 5, 5, 5, 9}, 0.5, 5},
		{"tie straddles p75", []float64{1, 2, 2, 2, 2, 3}, 0.75, 2},
	} {
		if got := Quantile(c.samples, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Quantile(%v, %g) = %g, want %g", c.name, c.samples, c.q, got, c.want)
		}
	}
}

func TestQuantileKeepsOrderAndEmptyIsNaN(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile reordered its input: %v", xs)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of no samples must be NaN")
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}
