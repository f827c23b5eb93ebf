package creditrisk

import (
	"fmt"
	"math"
)

// This file evaluates the exact CreditRisk+ loss distribution by the
// classical Panjer-style recursion of the CSFB technical document.
//
// Exposures are banded to integer multiples of a unit E₀. With the full
// systematic decomposition (Σ_k w_ik = 1) the loss decomposes into
// independent per-sector compound distributions: sector k's default
// counts are Poisson mixed by S_k ~ Gamma(a_k = 1/v_k, v_k), giving the
// negative-binomial-family PGF
//
//	G_k(z) = ((1−q_k)/(1−q_k·P_k(z)))^{a_k},  q_k = v_k·μ_k/(1+v_k·μ_k)
//
// with μ_k = Σ_i w_ik·p_i and the severity polynomial
// P_k(z) = Σ_j (μ_{k,j}/μ_k)·z^j over exposure bands j. Differentiating
// log G_k yields the stable forward recursion implemented in
// sectorLossPMF; the portfolio distribution is the convolution over
// sectors.

// BandedPortfolio is a portfolio with exposures quantized to integer
// units.
type BandedPortfolio struct {
	*Portfolio
	// Unit is E₀; band_i = round(e_i / E₀), forced ≥ 1.
	Unit float64
	// Bands[i] is obligor i's integer exposure multiple.
	Bands []int
}

// NewBandedPortfolio quantizes p's exposures to multiples of unit.
func NewBandedPortfolio(p *Portfolio, unit float64) (*BandedPortfolio, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(unit > 0) {
		return nil, fmt.Errorf("creditrisk: banding unit %g must be positive", unit)
	}
	b := &BandedPortfolio{Portfolio: p, Unit: unit, Bands: make([]int, len(p.Obligors))}
	for i, o := range p.Obligors {
		band := int(math.Round(o.Exposure / unit))
		if band < 1 {
			band = 1
		}
		b.Bands[i] = band
	}
	return b, nil
}

// sectorLossPMF computes sector k's loss distribution (in units) up to
// maxUnits via the recursion
//
//	n·A_n = q · Σ_j π_j · (n − j + a·j) · A_{n−j},  A_0 = (1−q)^a
//
// where π_j = μ_{k,j}/μ_k are the severity weights.
func (b *BandedPortfolio) sectorLossPMF(k, maxUnits int) ([]float64, error) {
	v := b.Sectors[k].Variance
	a := 1 / v

	// Severity polynomial: μ_{k,j} = Σ_{i: band_i = j} w_ik·p_i.
	muJ := map[int]float64{}
	var mu float64
	maxBand := 0
	for i, o := range b.Obligors {
		w := o.Weights[k]
		if w == 0 {
			continue
		}
		j := b.Bands[i]
		muJ[j] += w * o.PD
		mu += w * o.PD
		if j > maxBand {
			maxBand = j
		}
	}
	pmf := make([]float64, maxUnits+1)
	if mu == 0 { // sector with no affiliated obligors: loss ≡ 0
		pmf[0] = 1
		return pmf, nil
	}
	q := v * mu / (1 + v*mu)
	pi := make([]float64, maxBand+1)
	for j, m := range muJ {
		pi[j] = m / mu
	}

	logA0 := a * math.Log(1-q)
	pmf[0] = math.Exp(logA0)
	if pmf[0] == 0 {
		return nil, fmt.Errorf("creditrisk: sector %d recursion underflows (μ=%g, v=%g); rescale the portfolio", k, mu, v)
	}
	for n := 1; n <= maxUnits; n++ {
		var s float64
		for j := 1; j <= maxBand && j <= n; j++ {
			if pi[j] == 0 {
				continue
			}
			s += pi[j] * (float64(n-j) + a*float64(j)) * pmf[n-j]
		}
		pmf[n] = q * s / float64(n)
	}
	return pmf, nil
}

// convolve returns the distribution of the sum of two independent
// integer-valued losses, truncated to len(a)-1 units.
func convolve(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i, pa := range a {
		if pa == 0 {
			continue
		}
		for j, pb := range b {
			if i+j >= len(out) {
				break
			}
			out[i+j] += pa * pb
		}
	}
	return out
}

// LossDistribution is an exact banded loss pmf.
type LossDistribution struct {
	Unit float64
	PMF  []float64 // PMF[n] = P[L = n·Unit]
}

// PanjerLossDistribution evaluates the exact portfolio loss distribution
// up to maxUnits exposure units by per-sector recursion and convolution.
func (b *BandedPortfolio) PanjerLossDistribution(maxUnits int) (*LossDistribution, error) {
	if maxUnits < 1 {
		return nil, fmt.Errorf("creditrisk: maxUnits %d must be ≥ 1", maxUnits)
	}
	total := make([]float64, maxUnits+1)
	total[0] = 1
	for k := range b.Sectors {
		pk, err := b.sectorLossPMF(k, maxUnits)
		if err != nil {
			return nil, err
		}
		total = convolve(total, pk)
	}
	return &LossDistribution{Unit: b.Unit, PMF: total}, nil
}

// Mass returns the total probability captured within the truncation; the
// caller should size maxUnits so this is ≈ 1.
func (d *LossDistribution) Mass() float64 {
	var s float64
	for _, p := range d.PMF {
		s += p
	}
	return s
}

// Quantile returns the smallest loss x with P[L ≤ x] ≥ q.
func (d *LossDistribution) Quantile(q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("creditrisk: quantile level %g outside (0,1)", q)
	}
	cum := 0.0
	for n, p := range d.PMF {
		cum += p
		if cum >= q {
			return float64(n) * d.Unit, nil
		}
	}
	return 0, fmt.Errorf("creditrisk: quantile %g beyond truncation (mass %g); raise maxUnits", q, d.Mass())
}
