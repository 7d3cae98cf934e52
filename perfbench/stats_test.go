package main

import (
	"math"
	"slices"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if hasTail(999, 99) || !hasTail(1000, 99) {
		t.Error("hasTail(·, 99) must need 1000 samples: 10 beyond the 99th percentile")
	}
}

func TestPercentile(t *testing.T) {
	d := newDist([]float64{4, 1, 3, 2, 5})
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := d.pct(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("pct(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(dist(nil).median()) {
		t.Error("median of no samples must be NaN")
	}
	xs := []float64{3, 1, 2}
	if medianOf(xs) != 2 || !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Error("medianOf must not reorder its input")
	}
}

func TestLeastStolen(t *testing.T) {
	for _, c := range []struct {
		steal []int64
		want  []int
	}{
		{[]int64{5, 0, 9, 1}, []int{1, 3}},
		{[]int64{0, 0, 0}, []int{0, 1}},
		{[]int64{7, 3, 3, 1, 9}, []int{1, 2, 3}},
		{[]int64{4}, []int{0}},
	} {
		if got := leastStolen(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("leastStolen(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}
