// Package creditrisk implements the CreditRisk+ portfolio model
// (Credit Suisse First Boston, 1997) that motivates the paper's case
// study (Section II-D4): the state of the economy is a set of
// stochastically independent gamma-distributed sector variables
// S_k ~ Gamma(1/v_k, v_k) with E[S_k]=1 and Var[S_k]=v_k; an obligor i
// with default probability p_i and sector weights w_ik defaults at the
// Poisson-approximated intensity p_i·Σ_k w_ik·S_k; the portfolio loss is
// the exposure-weighted default count.
//
// Three engines are provided:
//
//   - analytic first/second moments of the loss distribution (closed
//     form, used as a cross-check oracle);
//   - a Monte-Carlo engine driven by the paper's gamma generator — the
//     consumer of the 2.5 GB sector-variable streams the kernels produce;
//   - the classical Panjer-recursion evaluation of the exact loss
//     distribution for exposure-banded portfolios (per-sector recursion
//     plus convolution), the industry-standard analytic method.
package creditrisk

import (
	"fmt"
	"math"
)

// Sector is one systematic risk factor.
type Sector struct {
	// Name labels the sector in reports.
	Name string
	// Variance is v_k = σ_k² of the gamma-distributed factor; the
	// paper's representative value is 1.39.
	Variance float64
}

// Obligor is one loan in the portfolio.
type Obligor struct {
	// PD is the annual default probability p_i ∈ (0, 1).
	PD float64
	// Exposure is the loss given default (net of recovery).
	Exposure float64
	// Weights[k] is the affiliation w_ik of the obligor to sector k;
	// the weights must sum to 1 (full systematic decomposition, the
	// standard CreditRisk+ convention).
	Weights []float64
}

// Portfolio bundles sectors and obligors.
type Portfolio struct {
	Sectors  []Sector
	Obligors []Obligor
}

// Validate checks the structural invariants of the model.
func (p *Portfolio) Validate() error {
	if len(p.Sectors) == 0 {
		return fmt.Errorf("creditrisk: portfolio needs at least one sector")
	}
	if len(p.Obligors) == 0 {
		return fmt.Errorf("creditrisk: portfolio needs at least one obligor")
	}
	for k, s := range p.Sectors {
		if !(s.Variance > 0) {
			return fmt.Errorf("creditrisk: sector %d variance %g must be positive", k, s.Variance)
		}
	}
	for i, o := range p.Obligors {
		if !(o.PD > 0 && o.PD < 1) {
			return fmt.Errorf("creditrisk: obligor %d PD %g outside (0,1)", i, o.PD)
		}
		if !(o.Exposure > 0) {
			return fmt.Errorf("creditrisk: obligor %d exposure %g must be positive", i, o.Exposure)
		}
		if len(o.Weights) != len(p.Sectors) {
			return fmt.Errorf("creditrisk: obligor %d has %d weights for %d sectors", i, len(o.Weights), len(p.Sectors))
		}
		sum := 0.0
		for k, w := range o.Weights {
			if w < 0 {
				return fmt.Errorf("creditrisk: obligor %d weight %d is negative", i, k)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("creditrisk: obligor %d weights sum to %g, want 1", i, sum)
		}
	}
	return nil
}

// ExpectedLoss returns E[L] = Σ_i p_i·e_i (sector factors have unit
// mean, so conditioning drops out).
func (p *Portfolio) ExpectedLoss() float64 {
	var el float64
	for _, o := range p.Obligors {
		el += o.PD * o.Exposure
	}
	return el
}

// LossVariance returns the exact variance of the Poisson-mixture loss:
//
//	Var[L] = Σ_i p_i·e_i²  +  Σ_k v_k · (Σ_i w_ik·p_i·e_i)²
//
// — conditional Poisson variance plus the systematic (gamma) term over
// independent sectors.
func (p *Portfolio) LossVariance() float64 {
	var idio float64
	sys := make([]float64, len(p.Sectors))
	for _, o := range p.Obligors {
		idio += o.PD * o.Exposure * o.Exposure
		for k, w := range o.Weights {
			sys[k] += w * o.PD * o.Exposure
		}
	}
	v := idio
	for k, s := range p.Sectors {
		v += s.Variance * sys[k] * sys[k]
	}
	return v
}

// SectorPolyExposure returns μ_{e,k} = Σ_i w_ik·p_i·e_i, the
// exposure-weighted expected intensity of sector k.
func (p *Portfolio) SectorPolyExposure(k int) float64 {
	var m float64
	for _, o := range p.Obligors {
		m += o.Weights[k] * o.PD * o.Exposure
	}
	return m
}

// RiskContributions returns each obligor's marginal contribution to the
// portfolio loss standard deviation (the classic CreditRisk+ capital
// allocation of the CSFB document):
//
//	RC_i = p_i·e_i · (e_i + Σ_k v_k·w_ik·μ_{e,k}) / σ_L
//
// The contributions are Euler-consistent: Σ_i RC_i = σ_L exactly, so the
// allocation fully distributes the portfolio risk over the loans.
func (p *Portfolio) RiskContributions() ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sigma := math.Sqrt(p.LossVariance())
	if sigma == 0 {
		return nil, fmt.Errorf("creditrisk: degenerate portfolio with zero loss variance")
	}
	mu := make([]float64, len(p.Sectors))
	for k := range p.Sectors {
		mu[k] = p.SectorPolyExposure(k)
	}
	out := make([]float64, len(p.Obligors))
	for i, o := range p.Obligors {
		sys := 0.0
		for k, w := range o.Weights {
			sys += p.Sectors[k].Variance * w * mu[k]
		}
		out[i] = o.PD * o.Exposure * (o.Exposure + sys) / sigma
	}
	return out, nil
}

// UniformPortfolio builds a homogeneous test portfolio: n obligors with
// the given PD and exposure, weights uniformly spread over the sectors
// round-robin (obligor i fully in sector i mod K — the single-sector
// affiliation the CSFB paper's examples use).
func UniformPortfolio(sectors []Sector, n int, pd, exposure float64) (*Portfolio, error) {
	p := &Portfolio{Sectors: sectors}
	for i := 0; i < n; i++ {
		w := make([]float64, len(sectors))
		w[i%len(sectors)] = 1
		p.Obligors = append(p.Obligors, Obligor{PD: pd, Exposure: exposure, Weights: w})
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
