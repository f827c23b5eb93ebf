package perf

import (
	"time"

	"github.com/decwi/decwi/internal/fpga"
)

// Fig5Point is one sample of the Fig. 5 tuning sweeps.
type Fig5Point struct {
	Platform string
	Config   string
	X        int // localSize (5a) or globalSize (5b)
	Runtime  time.Duration
}

// fig5Style returns the ICDF style the paper uses on fixed platforms for
// the given configuration (CUDA-style; M-Bray configs have none).
func fig5Style(c KernelConfig) ICDFStyle {
	if c.Transform == Config1.Transform {
		return ICDFStyleNone
	}
	return ICDFStyleCUDA
}

// LocalSizeSweep regenerates Fig. 5a: runtime versus localSize at
// globalSize 65536 for the given configurations on the three fixed
// platforms. The paper plots Config1 and Config3; the remaining
// configurations "yield a similar plot".
func LocalSizeSweep(w fpga.Workload, configs []KernelConfig, localSizes []int) ([]Fig5Point, error) {
	var out []Fig5Point
	for _, p := range FixedPlatforms {
		for _, c := range configs {
			for _, ls := range localSizes {
				d, err := p.KernelRuntime(w, c, fig5Style(c), 65536, ls)
				if err != nil {
					return nil, err
				}
				out = append(out, Fig5Point{Platform: p.Name, Config: c.Name, X: ls, Runtime: d.Runtime})
			}
		}
	}
	return out, nil
}

// GlobalSizeSweep regenerates Fig. 5b: runtime versus globalSize at each
// platform's optimal localSize.
func GlobalSizeSweep(w fpga.Workload, configs []KernelConfig, globalSizes []int) ([]Fig5Point, error) {
	var out []Fig5Point
	for _, p := range FixedPlatforms {
		for _, c := range configs {
			for _, gs := range globalSizes {
				d, err := p.KernelRuntime(w, c, fig5Style(c), gs, p.OptimalLocalSize)
				if err != nil {
					return nil, err
				}
				out = append(out, Fig5Point{Platform: p.Name, Config: c.Name, X: gs, Runtime: d.Runtime})
			}
		}
	}
	return out, nil
}
