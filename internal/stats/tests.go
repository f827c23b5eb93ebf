package stats

import (
	"fmt"
	"math"
	"sort"
)

// Float32To64 widens a float32 sample for the double-precision tests.
func Float32To64(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// KSResult carries a Kolmogorov-Smirnov statistic and its asymptotic
// p-value.
type KSResult struct {
	D      float64 // sup-norm distance
	PValue float64
	N      int // effective sample size
}

// kolmogorovP computes the asymptotic Kolmogorov p-value
// Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}.
func kolmogorovP(lambda float64) float64 {
	if lambda < 0.2 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// KSTestOneSample tests the sample xs against the analytic CDF cdf.
func KSTestOneSample(xs []float64, cdf func(float64) float64) KSResult {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := 0.0
	for i, x := range s {
		f := cdf(x)
		dp := float64(i+1)/float64(n) - f
		dm := f - float64(i)/float64(n)
		if dp > d {
			d = dp
		}
		if dm > d {
			d = dm
		}
	}
	sqn := math.Sqrt(float64(n))
	lambda := (sqn + 0.12 + 0.11/sqn) * d
	return KSResult{D: d, PValue: kolmogorovP(lambda), N: n}
}

// KSTestTwoSample tests whether two samples come from the same
// distribution.
func KSTestTwoSample(xs, ys []float64) KSResult {
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	var i, j int
	d := 0.0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			i++
		} else {
			j++
		}
		fa := float64(i) / float64(len(a))
		fb := float64(j) / float64(len(b))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	ne := float64(len(a)) * float64(len(b)) / float64(len(a)+len(b))
	sqn := math.Sqrt(ne)
	lambda := (sqn + 0.12 + 0.11/sqn) * d
	return KSResult{D: d, PValue: kolmogorovP(lambda), N: int(ne)}
}

// Histogram is a fixed-width binning of a sample over [Lo, Hi); values
// outside the range are counted in Under/Over. It is what Fig. 6 plots
// (gray area) against the reference density.
type Histogram struct {
	Lo, Hi      float64
	Counts      []int
	Under, Over int
	Total       int
}

// NewHistogram builds a histogram with the given number of bins.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if !(hi > lo) || bins < 1 {
		return nil, fmt.Errorf("stats: invalid histogram spec [%g,%g) bins=%d", lo, hi, bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add accumulates one observation.
func (h *Histogram) Add(x float64) {
	h.Total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // guard the floating-point top edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// AddAll accumulates a float32 sample.
func (h *Histogram) AddAll(xs []float32) {
	for _, x := range xs {
		h.Add(float64(x))
	}
}

// BinWidth returns the width of one bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Density returns the normalized density estimate of bin i
// (count / (total · width)), comparable with an analytic PDF.
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / (float64(h.Total) * h.BinWidth())
}
