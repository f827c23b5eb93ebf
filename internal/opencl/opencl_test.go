package opencl

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// paperDevice returns one of PaperPlatform's devices by name.
func paperDevice(name string) *Device {
	d, err := PaperPlatform().DeviceByName(name)
	if err != nil {
		panic(err)
	}
	return d
}

func TestPlatformAndDevices(t *testing.T) {
	p := PaperPlatform()
	for name, kind := range map[string]DeviceKind{
		"CPU": DeviceCPU, "GPU": DeviceGPU, "PHI": DeviceAccelerator, "FPGA": DeviceFPGA,
	} {
		d, err := p.DeviceByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Kind != kind {
			t.Errorf("%s: kind %d, want %d", name, d.Kind, kind)
		}
	}
	if _, err := p.DeviceByName("TPU"); err == nil {
		t.Fatal("unknown device should fail")
	}
	if _, err := NewPlatform("empty"); err == nil {
		t.Fatal("empty platform should fail")
	}
}

func TestNDRangeValidation(t *testing.T) {
	if err := (NDRange{GlobalSize: 65536, LocalSize: 64}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []NDRange{
		{GlobalSize: 0, LocalSize: 1},
		{GlobalSize: 16, LocalSize: 0},
		{GlobalSize: 100, LocalSize: 64},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v should fail", bad)
		}
	}
	if err := TaskRange.Validate(); err != nil {
		t.Fatalf("task range: %v", err)
	}
}

func TestBufferBasics(t *testing.T) {
	b, err := NewBuffer("out", WriteOnly, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 64 || b.Float32Len() != 16 || b.Name() != "out" || b.Flags() != WriteOnly {
		t.Fatal("metadata wrong")
	}
	if _, err := NewBuffer("bad", ReadWrite, 0); err == nil {
		t.Fatal("zero size should fail")
	}
	if err := b.WriteFloat32s(3, []float32{2.5}); err != nil {
		t.Fatal(err)
	}
	v := make([]float32, 1)
	if err := b.ReadFloat32s(3, v); err != nil || v[0] != 2.5 {
		t.Fatalf("round trip %v %v", v[0], err)
	}
	if err := b.ReadFloat32s(16, v); err == nil {
		t.Fatal("out of range read should fail")
	}
	if err := b.WriteFloat32s(-1, v); err == nil {
		t.Fatal("negative index should fail")
	}
}

func TestBufferBulkAndSub(t *testing.T) {
	b, _ := NewBuffer("data", ReadWrite, 40)
	src := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if err := b.WriteFloat32s(0, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, 10)
	if err := b.ReadFloat32s(0, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("slot %d: %g vs %g", i, src[i], dst[i])
		}
	}
	if err := b.WriteFloat32s(8, src); err == nil {
		t.Fatal("overflow write should fail")
	}
	sub, err := b.SubBuffer("view", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.ReadFloat32s(0, dst[:1]); err != nil || dst[0] != 3 {
		t.Fatalf("sub view misaligned: %g", dst[0])
	}
	if _, err := b.SubBuffer("bad", 32, 16); err == nil {
		t.Fatal("out-of-range sub-buffer should fail")
	}
}

func TestBufferFloatRoundTripProperty(t *testing.T) {
	b, _ := NewBuffer("prop", ReadWrite, 4)
	got := make([]float32, 1)
	f := func(bits uint32) bool {
		v := math.Float32frombits(bits)
		if err := b.WriteFloat32s(0, []float32{v}); err != nil {
			return false
		}
		if err := b.ReadFloat32s(0, got); err != nil {
			return false
		}
		if math.IsNaN(float64(v)) {
			return math.IsNaN(float64(got[0]))
		}
		return got[0] == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueueInOrderExecution(t *testing.T) {
	q, err := NewCommandQueue(paperDevice("FPGA"))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Release()
	var order []int
	var events []*Event
	for i := 0; i < 10; i++ {
		i := i
		ev, err := q.enqueue(fmt.Sprintf("cmd%d", i), time.Millisecond, nil, func() error {
			order = append(order, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v", order)
		}
	}
	// Profiling timestamps are contiguous on the simulated clock.
	var prevEnd time.Duration
	for i, ev := range events {
		s, e, err := ev.ProfilingInfo()
		if err != nil {
			t.Fatal(err)
		}
		if s != prevEnd {
			t.Fatalf("event %d starts at %v, want %v", i, s, prevEnd)
		}
		if e-s != time.Millisecond {
			t.Fatalf("event %d duration %v", i, e-s)
		}
		prevEnd = e
	}
	if q.SimClock() != 10*time.Millisecond {
		t.Fatalf("sim clock %v", q.SimClock())
	}
}

func TestQueueAsyncAndFailure(t *testing.T) {
	q, _ := NewCommandQueue(paperDevice("GPU"))
	defer q.Release()
	boom := errors.New("kernel fault")
	k := &Kernel{
		Name: "fail",
		Run:  func(NDRange) error { return boom },
	}
	ev, err := q.EnqueueTask(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); !errors.Is(err, boom) {
		t.Fatalf("want kernel fault, got %v", err)
	}
	if _, _, err := ev.ProfilingInfo(); !errors.Is(err, boom) {
		t.Fatalf("failed event profiling err %v, want kernel fault", err)
	}
	// Profiling before completion fails.
	ev2 := &Event{name: "raw", done: make(chan struct{})}
	if _, _, err := ev2.ProfilingInfo(); err == nil {
		t.Fatal("profiling before completion should fail")
	}
}

func TestKernelModelFeedsProfiling(t *testing.T) {
	q, _ := NewCommandQueue(paperDevice("FPGA"))
	defer q.Release()
	k := &Kernel{
		Name:  "gamma",
		Run:   func(NDRange) error { return nil },
		Model: func(NDRange) time.Duration { return 701 * time.Millisecond },
	}
	ev, err := q.EnqueueTask(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	d, err := ev.Duration()
	if err != nil {
		t.Fatal(err)
	}
	if d != 701*time.Millisecond {
		t.Fatalf("profiled duration %v", d)
	}
	// Nil kernel and bad ranges are rejected at enqueue time.
	if _, err := q.EnqueueNDRange(nil, TaskRange); err == nil {
		t.Fatal("nil kernel should fail")
	}
	if _, err := q.EnqueueNDRange(k, NDRange{GlobalSize: 3, LocalSize: 2}); err == nil {
		t.Fatal("bad range should fail")
	}
}

func TestReadWriteBufferCommands(t *testing.T) {
	q, _ := NewCommandQueue(paperDevice("FPGA"))
	defer q.Release()
	b, _ := NewBuffer("io", ReadWrite, 4*8)
	src := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	if err := b.WriteFloat32s(0, src); err != nil {
		t.Fatal(err)
	}
	host := make([]float32, 8)
	ev, err := q.EnqueueReadBuffer(b, 0, host, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if host[i] != src[i] {
			t.Fatalf("slot %d", i)
		}
	}
	// Access-mode enforcement.
	ro, _ := NewBuffer("ro", ReadOnly, 16)
	if _, err := q.EnqueueReadBuffer(ro, 0, host, 0, 1); !errors.Is(err, ErrAccessViolation) {
		t.Fatalf("read of ReadOnly: %v", err)
	}
	if _, err := q.EnqueueReadBuffer(b, 0, host, 4, 8); err == nil {
		t.Fatal("host overflow should fail")
	}
}

// TestCombineStrategies reproduces Section III-E: both strategies deliver
// identical host data; host-level combining pays N read-request
// overheads, device-level pays one; device-level is therefore faster on
// the simulated link.
func TestCombineStrategies(t *testing.T) {
	const n = 6
	const per = 1024 // floats per work-item

	dev := paperDevice("FPGA")

	// Strategy 1: N separate device buffers.
	q1, _ := NewCommandQueue(dev)
	defer q1.Release()
	var bufs []*Buffer
	for w := 0; w < n; w++ {
		b, _ := NewBuffer(fmt.Sprintf("wi%d", w), ReadWrite, per*4)
		vals := make([]float32, per)
		for i := range vals {
			vals[i] = float32(w*per + i)
		}
		if err := b.WriteFloat32s(0, vals); err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	host1 := make([]float32, n*per)
	r1, err := CombineAtHost(q1, bufs, host1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ReadRequests != n {
		t.Fatalf("host-level requests %d", r1.ReadRequests)
	}

	// Strategy 2: one device buffer with per-wid offsets.
	q2, _ := NewCommandQueue(dev)
	defer q2.Release()
	single, _ := NewBuffer("combined", ReadWrite, n*per*4)
	for w := 0; w < n; w++ {
		vals := make([]float32, per)
		for i := range vals {
			vals[i] = float32(w*per + i)
		}
		if err := single.WriteFloat32s(int64(w*per), vals); err != nil {
			t.Fatal(err)
		}
	}
	// Reset the clock influence of the writes by measuring only reads:
	// CombineAtDevice measures deltas internally.
	host2 := make([]float32, n*per)
	r2, err := CombineAtDevice(q2, single, host2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ReadRequests != 1 {
		t.Fatalf("device-level requests %d", r2.ReadRequests)
	}

	for i := range host1 {
		if host1[i] != host2[i] {
			t.Fatalf("strategies disagree at %d: %g vs %g", i, host1[i], host2[i])
		}
		if host1[i] != float32(i) {
			t.Fatalf("data wrong at %d: %g", i, host1[i])
		}
	}
	// Device-level must be faster by ≈(N−1)·requestOverhead.
	if r2.SimTime >= r1.SimTime {
		t.Fatalf("device-level %v not faster than host-level %v", r2.SimTime, r1.SimTime)
	}
	saved := (r1.SimTime - r2.SimTime).Seconds()
	wantSaved := float64(n-1) * dev.PCIe.RequestOverhead
	if math.Abs(saved-wantSaved)/wantSaved > 0.05 {
		t.Fatalf("saving %gs, want ≈%gs", saved, wantSaved)
	}

	// Error paths.
	if _, err := CombineAtHost(q1, nil, host1); err == nil {
		t.Fatal("no buffers should fail")
	}
	if _, err := CombineAtDevice(q2, single, host2[:10]); err == nil {
		t.Fatal("size mismatch should fail")
	}
	short := make([]float32, n*per-1)
	if _, err := CombineAtHost(q1, bufs, short); err == nil {
		t.Fatal("host size mismatch should fail")
	}
}

func TestQueueReleaseRejectsFurtherWork(t *testing.T) {
	q, _ := NewCommandQueue(paperDevice("CPU"))
	if err := q.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTask(&Kernel{Name: "late", Run: func(NDRange) error { return nil }}); err == nil {
		t.Fatal("enqueue after release should fail")
	}
}

func TestPCIeModel(t *testing.T) {
	m := PCIeModel{BandwidthGBs: 6, RequestOverhead: 30e-6}
	if got := m.TransferTime(0); got != 30e-6 {
		t.Fatalf("empty transfer %g", got)
	}
	if got := m.TransferTime(6e9); math.Abs(got-(1+30e-6)) > 1e-9 {
		t.Fatalf("6 GB transfer %g", got)
	}
	if got := m.TransferTime(-5); got != 30e-6 {
		t.Fatalf("negative bytes %g", got)
	}
}

func BenchmarkQueueEnqueueWait(b *testing.B) {
	q, _ := NewCommandQueue(paperDevice("FPGA"))
	defer q.Release()
	k := &Kernel{Name: "noop", Run: func(NDRange) error { return nil }}
	for i := 0; i < b.N; i++ {
		ev, err := q.EnqueueTask(k)
		if err != nil {
			b.Fatal(err)
		}
		if err := ev.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
