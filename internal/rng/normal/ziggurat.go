package normal

import (
	"math"
	"sync"

	"github.com/decwi/decwi/internal/rng"
)

// Ziggurat is the Marsaglia-Tsang ziggurat method (2000) for standard
// normals — implemented here as the paper's extensibility claim made
// concrete: "the new design approach ... can be extended to other
// algorithms that resemble the rejection methods, with data-dependent
// branches and dynamic for-loop exit conditions" (Conclusion). The
// ziggurat is exactly such an algorithm: ~97.5 % of draws take the fast
// rectangle path, the rest hit the wedge or tail tests and may reject,
// which on lockstep hardware diverges and on decoupled work-items does
// not.
//
// The per-cycle formulation below matches the pipelined discipline of
// Listing 2: every cycle consumes a fixed number of uniform words and
// either emits a valid variate or rejects; a rejected cycle retries with
// entirely fresh words, which is precisely the standard algorithm's
// redraw loop, so the output distribution is exact.
const zigLayers = 128

var (
	zigOnce sync.Once
	zigKN   [zigLayers]uint32
	zigWN   [zigLayers]float64
	zigFN   [zigLayers]float64
)

// zigR is the rightmost rectangle edge and zigV the common rectangle
// area for 128 layers (Marsaglia & Tsang 2000).
const (
	zigR = 3.442619855899
	zigV = 9.91256303526217e-3
)

func buildZiggurat() {
	const m1 = 2147483648.0 // 2^31
	dn, tn := zigR, zigR
	q := zigV / math.Exp(-0.5*dn*dn)
	zigKN[0] = uint32((dn / q) * m1)
	zigKN[1] = 0
	zigWN[0] = q / m1
	zigWN[zigLayers-1] = dn / m1
	zigFN[0] = 1
	zigFN[zigLayers-1] = math.Exp(-0.5 * dn * dn)
	for i := zigLayers - 2; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		zigKN[i+1] = uint32((dn / tn) * m1)
		tn = dn
		zigFN[i] = math.Exp(-0.5 * dn * dn)
		zigWN[i] = dn / m1
	}
}

// ZigguratStep performs one pipelined ziggurat attempt from three raw
// words. w1 supplies the signed candidate and layer index; w2 and w3 feed
// the wedge/tail acceptance tests (the tail's exponential-pair test needs
// two independent uniforms). ok=false means this cycle rejected and the
// pipeline retries with fresh words — exactly the standard algorithm's
// redraw loop, so the output distribution is exact.
func ZigguratStep(w1, w2, w3 uint32) (z float32, ok bool) {
	zigOnce.Do(buildZiggurat)

	hz := int32(w1)
	iz := uint32(hz) & (zigLayers - 1)
	abs := uint32(hz)
	if hz < 0 {
		abs = uint32(-int64(hz))
	}
	if abs < zigKN[iz] {
		// Fast rectangle path (~97.5 % of cycles).
		return float32(float64(hz) * zigWN[iz]), true
	}
	if iz == 0 {
		// Base-strip tail (|x| > r): one exponential-pair attempt.
		u1 := rng.U32ToFloat64Open(w2)
		u2 := rng.U32ToFloat64Open(w3)
		x := -math.Log(u1) / zigR
		y := -math.Log(u2)
		if y+y > x*x {
			r := zigR + x
			if hz < 0 {
				r = -r
			}
			return float32(r), true
		}
		return 0, false
	}
	// Wedge test between layer iz and iz−1.
	x := float64(hz) * zigWN[iz]
	u := rng.U32ToFloat64Open(w2)
	if zigFN[iz]+u*(zigFN[iz-1]-zigFN[iz]) < math.Exp(-0.5*x*x) {
		return float32(x), true
	}
	return 0, false
}
