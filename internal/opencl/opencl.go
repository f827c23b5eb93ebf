// Package opencl is a miniature OpenCL-style host runtime: platforms,
// devices, buffers, kernels, in-order command queues and events. It
// models the host-side mechanics the paper depends on — asynchronous
// kernel enqueues whose cl_events the host waits on
// (Section IV-F's measurement procedure), device buffers read back over
// PCIe, and the two buffer-combining strategies of Section III-E — while
// the kernels themselves are Go closures wired to the simulation
// substrates by the public facade.
//
// Timing discipline: execution is functional (closures really run, data
// really moves), but *profiling* timestamps advance a simulated per-queue
// device clock fed by each command's modelled duration. This mirrors how
// the paper measures device time through OpenCL event profiling rather
// than host wall time.
package opencl

import (
	"errors"
	"fmt"
)

// DeviceKind classifies a device like cl_device_type does.
type DeviceKind int

const (
	// DeviceCPU is a CPU used as an accelerator.
	DeviceCPU DeviceKind = iota
	// DeviceGPU is a discrete GPU.
	DeviceGPU
	// DeviceAccelerator covers Xeon-Phi-class accelerators.
	DeviceAccelerator
	// DeviceFPGA is an FPGA board programmed through SDAccel.
	DeviceFPGA
)

// PCIeModel is the host↔device link: effective bandwidth plus a fixed
// per-request overhead (driver, doorbell, DMA setup). The per-request
// term is what Section III-E's host-level combining pays N times.
type PCIeModel struct {
	BandwidthGBs    float64
	RequestOverhead float64 // seconds per read/write request
}

// DefaultPCIe is a 2015-era PCIe gen3 x8 link: ~6 GB/s effective,
// 30 µs per request.
var DefaultPCIe = PCIeModel{BandwidthGBs: 6.0, RequestOverhead: 30e-6}

// TransferTime returns the modelled duration of one request moving n
// bytes.
func (p PCIeModel) TransferTime(n int64) float64 {
	if n < 0 {
		n = 0
	}
	return p.RequestOverhead + float64(n)/(p.BandwidthGBs*1e9)
}

// Device is one accelerator visible to the host.
type Device struct {
	Name string
	Kind DeviceKind
	PCIe PCIeModel
}

// Platform owns the device list, like a cl_platform_id.
type Platform struct {
	Name    string
	devices []*Device
}

// NewPlatform creates a platform with the given devices.
func NewPlatform(name string, devices ...*Device) (*Platform, error) {
	if len(devices) == 0 {
		return nil, errors.New("opencl: a platform needs at least one device")
	}
	return &Platform{Name: name, devices: devices}, nil
}

// DeviceByName finds a device.
func (p *Platform) DeviceByName(name string) (*Device, error) {
	for _, d := range p.devices {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("opencl: no device named %q", name)
}

// PaperPlatform returns the paper's four host+accelerator combinations as
// one platform: CPU (dual E5-2670v3), GPU (Tesla K80), PHI (Xeon Phi
// 7120P), FPGA (ADM-PCIE-7V3).
func PaperPlatform() *Platform {
	p, err := NewPlatform("decwi-sim",
		&Device{Name: "CPU", Kind: DeviceCPU, PCIe: PCIeModel{BandwidthGBs: 12, RequestOverhead: 5e-6}},
		&Device{Name: "GPU", Kind: DeviceGPU, PCIe: DefaultPCIe},
		&Device{Name: "PHI", Kind: DeviceAccelerator, PCIe: DefaultPCIe},
		&Device{Name: "FPGA", Kind: DeviceFPGA, PCIe: PCIeModel{BandwidthGBs: 3.2, RequestOverhead: 40e-6}},
	)
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return p
}

// NDRange is the kernel launch geometry.
type NDRange struct {
	GlobalSize int
	LocalSize  int
}

// Validate checks the geometry like clEnqueueNDRangeKernel would.
func (n NDRange) Validate() error {
	if n.GlobalSize < 1 {
		return fmt.Errorf("opencl: globalSize %d must be ≥ 1", n.GlobalSize)
	}
	if n.LocalSize < 1 {
		return fmt.Errorf("opencl: localSize %d must be ≥ 1", n.LocalSize)
	}
	if n.GlobalSize%n.LocalSize != 0 {
		return fmt.Errorf("opencl: globalSize %d not divisible by localSize %d", n.GlobalSize, n.LocalSize)
	}
	return nil
}

// TaskRange is the single-threaded Task geometry of a .c kernel — the
// launch mode the paper's FPGA design uses (Section III-A), with the
// work-items instantiated inside the kernel instead of by the runtime.
var TaskRange = NDRange{GlobalSize: 1, LocalSize: 1}
