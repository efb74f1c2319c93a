// Package stats provides the small statistics toolkit shared by the
// experiment harnesses: integer histograms with CDF queries, geometric
// means, and compact scientific formatting used to render the paper's
// tables.
package stats

import (
	"fmt"
	"math"
)

// GeoMean returns the geometric mean of xs. Values must be positive;
// non-positive values are clamped to eps so a single zero (a benchmark
// with unmeasurably small overhead) does not zero the mean.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	const eps = 1e-9
	sum := 0.0
	for _, x := range xs {
		if x < eps {
			x = eps
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Hist is an exact integer-valued histogram. It stores counts per value
// in a map, so it suits distributions with moderate support (stack
// depths, ccStack depths) where exact CDFs are wanted.
type Hist struct {
	counts map[int]int64
	total  int64
	max    int
}

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{counts: make(map[int]int64), max: math.MinInt}
}

// Add records one observation of v.
func (h *Hist) Add(v int) {
	h.counts[v]++
	h.total++
	if v > h.max {
		h.max = v
	}
}

// Max returns the largest observed value (0 if empty).
func (h *Hist) Max() int {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// CDFAt returns the fraction of observations ≤ v.
func (h *Hist) CDFAt(v int) float64 {
	if h.total == 0 {
		return 0
	}
	var n int64
	for val, c := range h.counts {
		if val <= v {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}

// SciNotation formats a large count the way the paper's Table 1 does:
// exact for small values, "1.4E+11" style for large ones, and the word
// "overflow" when the overflow flag is set.
func SciNotation(v uint64, overflow bool) string {
	if overflow {
		return "overflow"
	}
	if v < 1_000_000 {
		return fmt.Sprintf("%d", v)
	}
	f := float64(v)
	exp := int(math.Floor(math.Log10(f)))
	mant := f / math.Pow10(exp)
	return fmt.Sprintf("%.1fE+%02d", mant, exp)
}

// Pct formats a ratio as a percentage with one decimal, e.g. 0.0213 →
// "2.1%".
func Pct(r float64) string { return fmt.Sprintf("%.1f%%", 100*r) }
