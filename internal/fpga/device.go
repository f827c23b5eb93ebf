package fpga

import (
	"fmt"
	"math"
	"time"
)

// Device bundles the timing-relevant properties of the FPGA platform.
type Device struct {
	// ClockHz is the SDAccel kernel clock (200 MHz in the paper).
	ClockHz float64
	// Mem is the global-memory controller model.
	Mem MemController
	// PipelineDepth is the MAINLOOP pipeline depth in cycles (latency of
	// one iteration through MT → transform → Marsaglia-Tsang → correct).
	PipelineDepth int
	// II is the achieved initiation interval (1 with the delayed-counter
	// workaround of Listing 2, 2 without it — see TestScheduleII in
	// internal/hls).
	II int
}

// DefaultDevice returns the paper's board at 200 MHz with II=1 and a
// 48-cycle pipeline depth (floating-point log/sqrt/divide chains dominate).
func DefaultDevice() Device {
	return Device{ClockHz: 200e6, Mem: DefaultMemController(), PipelineDepth: 48, II: 1}
}

// contentionCoeff scales the compute/transfer interference term: when the
// slower of the two paths approaches the faster one, FIFO backpressure
// and channel arbitration cost a few percent. Calibrated so that Config1
// lands at the measured 701 ms over its 683 ms theoretical compute time
// (utilization 0.94 → +2.6 %) while the strongly transfer-bound Config3/4
// see well under 1 %.
const contentionCoeff = 0.034

// KernelTiming is the timing breakdown of one kernel invocation.
type KernelTiming struct {
	// ComputeTime is the pipelined generation time: Eq. (1) plus
	// per-sector pipeline drain.
	ComputeTime time.Duration
	// TransferTime is totalBytes through the burst memory model.
	TransferTime time.Duration
	// Runtime is the modelled wall time: max of the two paths plus the
	// contention term.
	Runtime time.Duration
	// ComputeBound reports which path dominated.
	ComputeBound bool
	// EffectiveBandwidthGBs is the end-to-end achieved bandwidth
	// (totalBytes / Runtime) — the quantity the paper quotes as 3.58 and
	// 3.94 GB/s (Section IV-E).
	EffectiveBandwidthGBs float64
	// TheoreticalEq1 is the paper's Eq. (1) value, which excludes
	// everything outside the main pipelined loop.
	TheoreticalEq1 time.Duration
}

// Workload describes one kernel invocation of the case study.
type Workload struct {
	// NumScenarios and NumSectors span the output grid; the kernel
	// produces NumScenarios·NumSectors gamma values (Section IV-B:
	// 2,621,440 × 240 ≈ 2.5 GB in single precision).
	NumScenarios int64
	NumSectors   int64
	// BytesPerValue is 4 for single precision.
	BytesPerValue int64
}

// PaperWorkload is the Section IV-B setup.
var PaperWorkload = Workload{NumScenarios: 2621440, NumSectors: 240, BytesPerValue: 4}

// Outputs returns the number of generated values.
func (w Workload) Outputs() int64 { return w.NumScenarios * w.NumSectors }

// Bytes returns the size of the generated data set.
func (w Workload) Bytes() int64 { return w.Outputs() * w.BytesPerValue }

// TheoreticalEq1 evaluates the paper's Eq. (1):
//
//	t ≈ numScenarios·numSectors / (numWorkItems·f_FPGA) · (1+r)
//
// r is the combined rejection rate in the Eq. (1) sense: extra iterations
// per emitted output (gamma.Generator.RejectionRate measures exactly
// this).
func (d Device) TheoreticalEq1(w Workload, numWorkItems int, rejectionRate float64) (time.Duration, error) {
	if numWorkItems < 1 {
		return 0, fmt.Errorf("fpga: need at least one work-item")
	}
	if rejectionRate < 0 {
		return 0, fmt.Errorf("fpga: negative rejection rate %g", rejectionRate)
	}
	sec := float64(w.Outputs()) / (float64(numWorkItems) * d.ClockHz) * (1 + rejectionRate)
	return time.Duration(sec * float64(time.Second)), nil
}

// KernelRuntime models one kernel invocation: numWorkItems decoupled
// pipelines generating w.Outputs() values at the given combined rejection
// rate, transferring them through the burst memory controller with bursts
// of burstRNs values.
func (d Device) KernelRuntime(w Workload, numWorkItems int, rejectionRate float64, burstRNs int) (KernelTiming, error) {
	eq1, err := d.TheoreticalEq1(w, numWorkItems, rejectionRate)
	if err != nil {
		return KernelTiming{}, err
	}

	// Compute path: Eq. (1) iterations at the achieved II, plus one
	// pipeline drain per SECLOOP iteration per work-item (the overhead
	// Eq. (1) explicitly excludes; it is small but real).
	perWI := float64(w.Outputs()) / float64(numWorkItems) * (1 + rejectionRate) * float64(d.II)
	drain := float64(w.NumSectors) * float64(d.PipelineDepth)
	computeSec := (perWI + drain) / d.ClockHz

	// Transfer path: the full data set through the burst model.
	trans, err := d.Mem.TransferOnlyRuntime(w.Bytes(), burstRNs, numWorkItems)
	if err != nil {
		return KernelTiming{}, err
	}
	transSec := trans.Seconds()

	slow := math.Max(computeSec, transSec)
	fast := math.Min(computeSec, transSec)
	rho := 0.0
	if slow > 0 {
		rho = fast / slow
	}
	runtime := slow * (1 + contentionCoeff*math.Pow(rho, 4))

	t := KernelTiming{
		ComputeTime:    time.Duration(computeSec * float64(time.Second)),
		TransferTime:   trans,
		Runtime:        time.Duration(runtime * float64(time.Second)),
		ComputeBound:   computeSec >= transSec,
		TheoreticalEq1: eq1,
	}
	if runtime > 0 {
		t.EffectiveBandwidthGBs = float64(w.Bytes()) / (runtime * 1e9)
	}
	return t, nil
}
