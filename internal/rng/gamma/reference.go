package gamma

import (
	"math"

	"github.com/decwi/decwi/internal/rng"
)

// This file contains algorithm-independent reference samplers that play
// the role of the paper's Matlab `gamrnd` benchmark in Fig. 6. They share
// no code with the Marsaglia-Tsang path: Jöhnk's beta-ratio method and
// an exponential-sum decomposition (the tests add Ahrens-Dieter GS as a
// third). Agreement between these and the pipelined generator is
// therefore strong evidence of distributional correctness.

// Uniform64 is the uniform source consumed by the reference samplers.
type Uniform64 interface{ Next() float64 }

// JohnkGamma samples Gamma(α, 1) for 0 < α < 1 with Jöhnk's method:
// accept (X,Y) = (U^(1/α), V^(1/(1−α))) when X+Y ≤ 1, then return
// E·X/(X+Y) with E ~ Exp(1).
func JohnkGamma(u Uniform64, alpha float64) float64 {
	if alpha <= 0 || alpha >= 1 {
		panic("gamma: JohnkGamma requires 0 < alpha < 1")
	}
	for {
		x := math.Pow(u.Next(), 1/alpha)
		y := math.Pow(u.Next(), 1/(1-alpha))
		if s := x + y; s > 0 && s <= 1 {
			e := -math.Log(u.Next())
			return e * x / s
		}
	}
}

// ExpSumGamma samples Gamma(α, 1) for any α > 0 by the decomposition
// Gamma(n+f) = Σ_{i<n} Exp(1) + Gamma(f), with the fractional part drawn
// by Jöhnk. Exact but O(α) per sample, so only suitable as an oracle.
func ExpSumGamma(u Uniform64, alpha float64) float64 {
	n := int(alpha)
	f := alpha - float64(n)
	var g float64
	for i := 0; i < n; i++ {
		g += -math.Log(u.Next())
	}
	if f > 0 {
		g += JohnkGamma(u, f)
	}
	return g
}

// ReferenceSampler bundles a uniform source with gamma parameters,
// choosing the decomposition automatically. It implements the same
// "mean 1, variance v" sector convention as the main generator.
type ReferenceSampler struct {
	u   Uniform64
	p   Params
	use func(u Uniform64, alpha float64) float64
}

// NewReferenceSampler builds an oracle sampler for Params p over the
// given 32-bit source.
func NewReferenceSampler(p Params, src rng.Source32) *ReferenceSampler {
	r := &ReferenceSampler{u: rng.Float64Source{Src: src}, p: p}
	if p.Alpha < 1 {
		r.use = JohnkGamma
	} else {
		r.use = ExpSumGamma
	}
	return r
}

// Next returns one Gamma(α, β) variate.
func (r *ReferenceSampler) Next() float32 {
	return float32(r.use(r.u, r.p.Alpha) * r.p.Scale)
}

// Fill appends n variates to dst and returns it.
func (r *ReferenceSampler) Fill(dst []float32, n int) []float32 {
	if dst == nil {
		dst = make([]float32, 0, n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, r.Next())
	}
	return dst
}
