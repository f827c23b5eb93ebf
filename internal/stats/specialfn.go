// Package stats provides the statistical machinery used to validate the
// generated distributions (paper Fig. 6 and the rejection-rate claims of
// Section IV-E): the regularized incomplete gamma function, the
// Gamma(α, β) distribution object, histograms, and the
// Kolmogorov-Smirnov and Anderson-Darling goodness-of-fit tests.
// Everything is stdlib-only, double precision.
package stats

import (
	"fmt"
	"math"
)

// RegularizedGammaP computes P(a, x) = γ(a, x)/Γ(a), the regularized lower
// incomplete gamma function, for a > 0, x ≥ 0. It switches between the
// series expansion (x < a+1) and the Lentz continued fraction for the
// complement (x ≥ a+1), the classic numerically stable split.
func RegularizedGammaP(a, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case a <= 0:
		return math.NaN()
	case x < 0:
		return math.NaN()
	case x == 0:
		return 0
	case math.IsInf(x, 1):
		return 1
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQContinuedFraction(a, x)
}

const (
	gammaEps     = 1e-15
	gammaMaxIter = 1000
)

// gammaPSeries evaluates P(a,x) by the power series
// γ(a,x) = e^{-x} x^a Σ_{n≥0} x^n / (a(a+1)...(a+n)).
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for n := 0; n < gammaMaxIter; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinuedFraction evaluates Q(a,x) with the modified Lentz
// algorithm on the continued fraction
// Γ(a,x)/Γ(a) = e^{-x} x^a / (x+1-a- 1(1-a)/(x+3-a- ...)).
func gammaQContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	tiny := 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// GammaDist is the two-parameter gamma distribution Gamma(α, β) with
// density x^{α−1} e^{−x/β} / (Γ(α) β^α) — the sector-variable law of the
// CreditRisk+ model.
type GammaDist struct {
	Alpha float64 // shape
	Scale float64 // scale β
}

// NewGammaDist validates and constructs a gamma distribution.
func NewGammaDist(alpha, scale float64) (GammaDist, error) {
	if !(alpha > 0) || !(scale > 0) {
		return GammaDist{}, fmt.Errorf("stats: gamma parameters must be positive, got α=%g β=%g", alpha, scale)
	}
	return GammaDist{Alpha: alpha, Scale: scale}, nil
}

// PDF evaluates the density at x (0 for x<0; handles the α<1 pole by
// returning +Inf at exactly 0).
func (g GammaDist) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case g.Alpha < 1:
			return math.Inf(1)
		case g.Alpha == 1:
			return 1 / g.Scale
		default:
			return 0
		}
	}
	lg, _ := math.Lgamma(g.Alpha)
	return math.Exp((g.Alpha-1)*math.Log(x) - x/g.Scale - lg - g.Alpha*math.Log(g.Scale))
}

// CDF evaluates P(X ≤ x) = P(α, x/β).
func (g GammaDist) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return RegularizedGammaP(g.Alpha, x/g.Scale)
}
