package normal

import (
	"math"

	"github.com/decwi/decwi/internal/rng"
)

// ErfinvGiles computes erf⁻¹(x) in single precision using Giles'
// polynomial approximation ("Approximating the erfinv function", GPU
// Computing Gems Jade ed., ch. 10). The approximation has a single
// data-dependent branch on w = −log(1−x²), which is what makes it the
// preferred implementation on lockstep architectures: the paper replaces
// Nvidia's erfcinv with this "version that minimizes divergent branches"
// (Section II-D3).
func ErfinvGiles(x float32) float32 {
	w := float32(-math.Log(float64((1 - x) * (1 + x))))
	var p float32
	if w < 5 {
		w -= 2.5
		p = 2.81022636e-08
		p = 3.43273939e-07 + p*w
		p = -3.5233877e-06 + p*w
		p = -4.39150654e-06 + p*w
		p = 0.00021858087 + p*w
		p = -0.00125372503 + p*w
		p = -0.00417768164 + p*w
		p = 0.246640727 + p*w
		p = 1.50140941 + p*w
	} else {
		w = float32(math.Sqrt(float64(w))) - 3
		p = -0.000200214257
		p = 0.000100950558 + p*w
		p = 0.00134934322 + p*w
		p = -0.00367342844 + p*w
		p = 0.00573950773 + p*w
		p = -0.0076224613 + p*w
		p = 0.00943887047 + p*w
		p = 1.00167406 + p*w
		p = 2.83297682 + p*w
	}
	return p * x
}

// ErfcinvGiles computes erfc⁻¹(y) for y ∈ (0,2) through the identity
// erfcinv(y) = erfinv(1−y) that the paper applies to reuse the
// branch-minimised erfinv.
func ErfcinvGiles(y float32) float32 { return ErfinvGiles(1 - y) }

// ICDFCUDAStep is the "ICDF CUDA-style" transform of Table III: a modified
// _curand_normal_icdf mapping one uniform word to a normal variate via
//
//	Φ⁻¹(u) = −√2 · erfcinv(2u)
//
// with Giles' erfinv underneath. ok is false exactly when z is not
// finite: the words ≥ 0xFFFFFF00, which U32ToFloatOpen maps to u = 1
// and which give z = −Inf. Every other word, the all-zeros word
// included, yields a finite variate.
func ICDFCUDAStep(w uint32) (z float32, ok bool) {
	u := rng.U32ToFloatOpen(w)
	z = -float32(math.Sqrt2) * ErfcinvGiles(2*u)
	return z, rng.IsFinite32(z)
}
