package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the percentile rule: a percentile is reported only where at
// least this many samples lie beyond it.
const minTail = 10

// supportedQuantile returns the quantile actually reported when q is asked
// for over n samples: q itself when at least minTail samples lie beyond it,
// otherwise the highest quantile that still has minTail samples beyond it.
// It never goes below the median, and with too few samples for even that it
// returns the median.
func supportedQuantile(n int, q float64) float64 {
	if n <= 0 {
		return q
	}
	if float64(n)*(1-q) >= minTail {
		return q
	}
	s := 1 - float64(minTail)/float64(n)
	if s < 0.5 {
		return 0.5
	}
	return s
}

// quantile returns the q-quantile of sorted values by the nearest-rank
// rule, after applying the percentile rule.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	q = supportedQuantile(n, q)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// dist is a sorted sample set.
type dist struct{ v []float64 }

func newDist(v []float64) dist {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return dist{v: s}
}

func (d dist) n() int { return len(d.v) }

// q returns the q-quantile (percentile rule applied).
func (d dist) q(q float64) float64 {
	return quantile(d.v, q)
}

func (d dist) max() float64 {
	if len(d.v) == 0 {
		return math.NaN()
	}
	return d.v[len(d.v)-1]
}

func median(v []float64) float64 {
	return newDist(v).q(0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minOf returns the smallest value (NaN for none).
func minOf(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	m := v[0]
	for _, x := range v[1:] {
		m = math.Min(m, x)
	}
	return m
}
