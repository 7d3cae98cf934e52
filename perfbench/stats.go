package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail backed by fewer observations is an anecdote, not
// a statistic.
const minBeyond = 10

// tailLadder lists the tail percentiles the report may use, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of tailLadder that has
// at least minBeyond of n samples above it, or 0 when even the median
// has fewer (n < 20).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if hasTail(n, p) {
			return p
		}
	}
	return 0
}

// hasTail reports whether percentile p of n samples has at least
// minBeyond samples above it.
func hasTail(n int, p float64) bool {
	// The tolerance absorbs the rounding of 100−p (99.9 is not exact).
	return float64(n)*(100-p)/100 >= minBeyond-1e-6
}

// dist is a sorted sample set.
type dist []float64

// newDist sorts xs in place and returns it as a distribution.
func newDist(xs []float64) dist {
	sort.Float64s(xs)
	return dist(xs)
}

// pct returns the p-th percentile (0–100) by linear interpolation
// between order statistics; NaN for an empty set.
func (d dist) pct(p float64) float64 {
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return d[n-1]
	}
	frac := pos - float64(lo)
	return d[lo] + frac*(d[lo+1]-d[lo])
}

// median returns the 50th percentile.
func (d dist) median() float64 { return d.pct(50) }

// medianOf returns the median of xs without modifying it.
func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return newDist(c).median()
}

// leastStolen returns, in ascending order, the indices of the
// ⌈n/2⌉ windows with the least steal (ties go to the earlier window).
func leastStolen(steal []int64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}
