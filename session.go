package decwi

import (
	"fmt"
	"time"

	"github.com/decwi/decwi/internal/core"
	"github.com/decwi/decwi/internal/fpga"
	"github.com/decwi/decwi/internal/opencl"
	"github.com/decwi/decwi/internal/perf"
	"github.com/decwi/decwi/internal/telemetry"
)

// Session is the OpenCL-level path through the system: a host context on
// the simulated platform, a compiled gamma kernel on the FPGA device, an
// in-order command queue with profiled events, and device buffers read
// back with the Section III-E combining strategy of choice. Examples use
// Generate for simplicity; Session demonstrates the full host API the
// paper's measurement harness exercises.
type Session struct {
	Platform *opencl.Platform
	Device   *opencl.Device
	Queue    *opencl.CommandQueue

	tel *telemetry.Recorder
}

// SetTelemetry attaches a recorder to the session: command-queue
// enqueue/complete spans plus full engine instrumentation for every
// subsequent EnqueueGamma. Call right after NewSession, before any
// command is enqueued; a nil recorder is ignored.
func (s *Session) SetTelemetry(rec *telemetry.Recorder) {
	if rec == nil {
		return
	}
	s.tel = rec
	s.Queue.SetTelemetry(rec)
}

// NewSession opens a session on the named device of the paper platform
// ("CPU", "GPU", "PHI", "FPGA").
func NewSession(device string) (*Session, error) {
	p := opencl.PaperPlatform()
	d, err := p.DeviceByName(device)
	if err != nil {
		return nil, err
	}
	q, err := opencl.NewCommandQueue(d)
	if err != nil {
		return nil, err
	}
	return &Session{Platform: p, Device: d, Queue: q}, nil
}

// Close releases the queue.
func (s *Session) Close() error { return s.Queue.Release() }

// KernelRun is the outcome of one EnqueueGamma invocation.
type KernelRun struct {
	// Host holds the gamma values after read-back.
	Host []float32
	// DeviceTime is the profiled (modelled) kernel execution time.
	DeviceTime time.Duration
	// ReadTime is the profiled PCIe read-back time.
	ReadTime time.Duration
	// ReadRequests is 1 for device-level combining, WorkItems for
	// host-level combining.
	ReadRequests int
}

// EnqueueGamma builds the Table I kernel for configuration c, enqueues it
// as a Task (the paper's .c kernel mode), waits on its event, and reads
// the results back using device-level buffer combining (the strategy the
// paper selects in Section III-E-2). Set hostCombine to use strategy 1
// (N sub-buffer reads) instead.
//
// The kernel body is the engine's hardware model, core.Engine.Run:
// Listing 1's dataflow of one GammaRNG and one Transfer process per
// work-item joined by an hls::stream, with 512-bit packing and burst
// copies. It is the only facade route to that model, and so the one
// that records stream backpressure, burst and FIFO-occupancy telemetry.
// The bytes read back equal Generate's for the same options.
func (s *Session) EnqueueGamma(c ConfigID, opt GenerateOptions, hostCombine bool) (*KernelRun, error) {
	k, err := c.kernel()
	if err != nil {
		return nil, err
	}
	opt, err = normalizeGenerate(k, opt)
	if err != nil {
		return nil, err
	}
	if opt.Telemetry == nil {
		opt.Telemetry = s.tel
	}
	wi := opt.WorkItems

	eng, err := core.NewEngine(engineConfig(k, opt))
	if err != nil {
		return nil, err
	}

	total := opt.Scenarios * int64(opt.Sectors)
	buf, err := opencl.NewBuffer("gammaValues", opencl.WriteOnly, total*4)
	if err != nil {
		return nil, err
	}

	// The kernel closure runs the decoupled work-item engine and stores
	// into device global memory; its duration model is the fpga timing
	// model at the engine's measured rejection rate (approximated by the
	// transform's calibrated rate for the profiling estimate).
	var run *core.RunResult
	w := fpga.Workload{NumScenarios: opt.Scenarios, NumSectors: int64(opt.Sectors), BytesPerValue: 4}
	kernel := &opencl.Kernel{
		Name: k.Name,
		Run: func(opencl.NDRange) error {
			r, err := eng.Run()
			if err != nil {
				return err
			}
			run = r
			return buf.WriteFloat32s(0, r.Data)
		},
		Model: func(opencl.NDRange) time.Duration {
			t, err := fpga.DefaultDevice().KernelRuntime(w, wi,
				perf.MeasuredIters(k.Transform).RejectionRate, eng.Config().BurstRNs)
			if err != nil {
				return 0
			}
			return t.Runtime
		},
	}

	ev, err := s.Queue.EnqueueTask(kernel)
	if err != nil {
		return nil, err
	}
	if err := ev.Wait(); err != nil {
		return nil, err
	}
	devTime, err := ev.Duration()
	if err != nil {
		return nil, err
	}

	host := make([]float32, total)
	var combined opencl.CombineResult
	if hostCombine {
		// Strategy 1: N sub-buffer views, N read requests.
		var views []*opencl.Buffer
		for widx := 0; widx < wi; widx++ {
			lo := run.BlockOffsets[widx] * 4
			hi := run.BlockOffsets[widx+1] * 4
			v, err := buf.SubBuffer(fmt.Sprintf("wi%d", widx), lo, hi-lo)
			if err != nil {
				return nil, err
			}
			views = append(views, v)
		}
		combined, err = opencl.CombineAtHost(s.Queue, views, host)
	} else {
		// Strategy 2: single buffer, single read (the paper's choice).
		combined, err = opencl.CombineAtDevice(s.Queue, buf, host)
	}
	if err != nil {
		return nil, err
	}
	// Read-back accounting mirrors the stream-side burst counters: one
	// bulk increment for the whole combined transfer, not one per value.
	s.tel.Counter("session.readback-values", "values",
		"float32 values read back from the device buffer, bulk-counted per combine").Add(total)
	s.tel.Counter("session.readback-requests", "events",
		"read requests issued by the combining strategy").Add(int64(combined.ReadRequests))
	return &KernelRun{
		Host:         host,
		DeviceTime:   devTime,
		ReadTime:     combined.SimTime,
		ReadRequests: combined.ReadRequests,
	}, nil
}
