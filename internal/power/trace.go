package power

import (
	"fmt"
	"math"
	"time"
)

// Sample is one meter reading.
type Sample struct {
	T time.Duration // time since trace start
	W float64       // plug power in watts
}

// Trace is a sampled plug-power time series with the experiment's marker
// positions (Fig. 8's vertical lines).
type Trace struct {
	Samples []Sample
	// KernelStart is the first marker: the host triggers the kernel.
	KernelStart time.Duration
	// WindowStart/WindowEnd delimit the 100-second integration window
	// (the last two markers of Fig. 8).
	WindowStart, WindowEnd time.Duration
	// KernelRuntime is the single-invocation runtime the trace was
	// synthesized for.
	KernelRuntime time.Duration
}

// MeterResolutionW quantizes readings to the multimeter's display
// resolution (0.1 W on the VC870's power range).
const MeterResolutionW = 0.1

// SynthesizeTrace generates the Fig. 8 experiment for one platform and
// configuration: idle lead-in, first marker at the enqueue burst, a
// cooling-lagged ramp to the loaded plateau, continuous back-to-back
// kernel invocations past minBusy (the paper enqueues "several times in
// order to reach over 150 seconds"), then a return to idle. Sampling is
// 1 S/s with meter quantization and a small deterministic supply ripple.
func SynthesizeTrace(dynamicW float64, kernelRuntime time.Duration, minBusy time.Duration) (*Trace, error) {
	if dynamicW <= 0 {
		return nil, fmt.Errorf("power: dynamic power must be positive, got %g W", dynamicW)
	}
	if kernelRuntime <= 0 {
		return nil, fmt.Errorf("power: kernel runtime must be positive, got %v", kernelRuntime)
	}
	if minBusy < 120*time.Second {
		return nil, fmt.Errorf("power: busy window %v too short for the 100 s integration procedure", minBusy)
	}

	const idleLead = 20 * time.Second
	// Round the busy period up to whole invocations.
	n := math.Ceil(minBusy.Seconds() / kernelRuntime.Seconds())
	busy := time.Duration(n * kernelRuntime.Seconds() * float64(time.Second))
	const idleTail = 20 * time.Second
	total := idleLead + busy + idleTail

	tr := &Trace{
		KernelStart:   idleLead,
		WindowEnd:     idleLead + busy,
		KernelRuntime: kernelRuntime,
	}
	tr.WindowStart = tr.WindowEnd - 100*time.Second

	for t := time.Duration(0); t <= total; t += time.Second {
		w := IdleSystemW
		if t >= tr.KernelStart && t < tr.WindowEnd {
			el := (t - tr.KernelStart).Seconds()
			// First-order cooling/load ramp toward the plateau.
			w += dynamicW * (1 - math.Exp(-el/CoolingTimeConstantS))
			// Host dispatch burst right after the first marker.
			if el < 3 {
				w += EnqueueSpikeW * (1 - el/3)
			}
		}
		// Deterministic supply/meter ripple (±0.5 W) so the integration
		// procedure is exercised on non-constant data.
		w += 0.5 * math.Sin(2*math.Pi*float64(t/time.Second)/7)
		// Meter quantization.
		w = math.Round(w/MeterResolutionW) * MeterResolutionW
		tr.Samples = append(tr.Samples, Sample{T: t, W: w})
	}
	return tr, nil
}

// Integrate returns the trapezoidal integral of plug power over
// [from, to] in joules.
func (tr *Trace) Integrate(from, to time.Duration) (float64, error) {
	if to <= from {
		return 0, fmt.Errorf("power: empty integration window [%v, %v]", from, to)
	}
	if len(tr.Samples) < 2 {
		return 0, fmt.Errorf("power: trace too short to integrate")
	}
	var joules float64
	for i := 1; i < len(tr.Samples); i++ {
		a, b := tr.Samples[i-1], tr.Samples[i]
		lo, hi := a.T, b.T
		if hi <= from || lo >= to {
			continue
		}
		// Clip the segment to the window (linear interpolation).
		wa, wb := a.W, b.W
		seg := (hi - lo).Seconds()
		if lo < from {
			frac := (from - lo).Seconds() / seg
			wa = a.W + (b.W-a.W)*frac
			lo = from
		}
		if hi > to {
			frac := (to - a.T).Seconds() / (b.T - a.T).Seconds()
			wb = a.W + (b.W-a.W)*frac
			hi = to
		}
		joules += (wa + wb) / 2 * (hi - lo).Seconds()
	}
	return joules, nil
}

// DynamicEnergyPerInvocation applies the paper's post-processing to the
// trace: integrate plug power over the 100 s window between the last two
// markers, subtract the static (idle) energy, and divide by the —
// generally fractional — number of kernel invocations inside the window.
func (tr *Trace) DynamicEnergyPerInvocation() (float64, error) {
	total, err := tr.Integrate(tr.WindowStart, tr.WindowEnd)
	if err != nil {
		return 0, err
	}
	window := (tr.WindowEnd - tr.WindowStart).Seconds()
	dynamic := total - IdleSystemW*window
	invocations := window / tr.KernelRuntime.Seconds()
	if invocations <= 0 {
		return 0, fmt.Errorf("power: no invocations in window")
	}
	return dynamic / invocations, nil
}
