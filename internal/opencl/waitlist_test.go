package opencl

import (
	"errors"
	"testing"
	"time"
)

// TestWaitListOrdering: a command with a wait list starts — on the
// simulated timeline too — after its dependency from another queue.
func TestWaitListOrdering(t *testing.T) {
	p := PaperPlatform()
	d, _ := p.DeviceByName("FPGA")
	q1, _ := NewCommandQueue(d)
	q2, _ := NewCommandQueue(d)
	defer q1.Release()
	defer q2.Release()
	b, _ := NewBuffer("data", ReadWrite, 16)

	slow := &Kernel{
		Name:  "producer",
		Run:   func(NDRange) error { return nil },
		Model: func(NDRange) time.Duration { return 50 * time.Millisecond },
	}
	evA, err := q1.EnqueueTask(slow)
	if err != nil {
		t.Fatal(err)
	}
	evB, err := q2.EnqueueReadBuffer(b, 0, make([]float32, 4), 0, 4, evA)
	if err != nil {
		t.Fatal(err)
	}
	if err := evB.Wait(); err != nil {
		t.Fatal(err)
	}
	sA, eA, _ := evA.ProfilingInfo()
	sB, eB, _ := evB.ProfilingInfo()
	_ = sA
	if sB < eA {
		t.Fatalf("consumer started at %v before producer ended at %v", sB, eA)
	}
	if want := time.Duration(d.PCIe.TransferTime(16) * float64(time.Second)); eB-sB != want {
		t.Fatalf("consumer duration %v, want %v", eB-sB, want)
	}
}

// TestWaitListFailurePropagation: a failed dependency aborts the waiting
// command.
func TestWaitListFailurePropagation(t *testing.T) {
	p := PaperPlatform()
	d, _ := p.DeviceByName("GPU")
	q, _ := NewCommandQueue(d)
	defer q.Release()
	b, _ := NewBuffer("data", ReadWrite, 4)
	if err := b.WriteFloat32s(0, []float32{1}); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("bad kernel")
	evA, err := q.EnqueueTask(&Kernel{Name: "boom", Run: func(NDRange) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	host := make([]float32, 1)
	evB, err := q.EnqueueReadBuffer(b, 0, host, 0, 1, evA)
	if err != nil {
		t.Fatal(err)
	}
	if err := evB.Wait(); err == nil {
		t.Fatal("dependent command should abort")
	}
	if host[0] != 0 {
		t.Fatal("dependent read must not run")
	}
	if _, _, err := evB.ProfilingInfo(); err == nil {
		t.Fatal("aborted command reports no error")
	}
	// Nil events in wait lists are rejected up front.
	if _, err := q.EnqueueReadBuffer(b, 0, host, 0, 1, nil); err == nil {
		t.Fatal("nil wait event should fail")
	}
}

// TestReadBufferWaitList: reads honour wait lists too (the combining
// helpers rely on kernel→read ordering).
func TestReadBufferWaitList(t *testing.T) {
	p := PaperPlatform()
	d, _ := p.DeviceByName("FPGA")
	q, _ := NewCommandQueue(d)
	defer q.Release()
	b, _ := NewBuffer("data", ReadWrite, 16)

	kernel := &Kernel{
		Name: "fill",
		Run: func(NDRange) error {
			return b.WriteFloat32s(0, []float32{7, 8, 9, 10})
		},
		Model: func(NDRange) time.Duration { return 20 * time.Millisecond },
	}
	evK, err := q.EnqueueTask(kernel)
	if err != nil {
		t.Fatal(err)
	}
	host := make([]float32, 4)
	evR, err := q.EnqueueReadBuffer(b, 0, host, 0, 4, evK)
	if err != nil {
		t.Fatal(err)
	}
	if err := evR.Wait(); err != nil {
		t.Fatal(err)
	}
	if host[0] != 7 || host[3] != 10 {
		t.Fatalf("host %v", host)
	}
	sR, _, _ := evR.ProfilingInfo()
	_, eK, _ := evK.ProfilingInfo()
	if sR < eK {
		t.Fatalf("read started before kernel ended")
	}
}
