package opencl

import (
	"fmt"
	"sync"
	"time"

	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/flight"
)

// EventStatus tracks the lifecycle of an enqueued command.
type EventStatus int

const (
	// Queued means the command sits in the queue.
	Queued EventStatus = iota
	// Running means the command is executing.
	Running
	// Complete means the command finished successfully.
	Complete
	// Failed means the command returned an error.
	Failed
)

// Event is a cl_event: completion signalling plus profiling timestamps on
// the simulated device timeline.
type Event struct {
	name string
	done chan struct{}

	mu     sync.Mutex
	status EventStatus
	err    error
	// start/end are positions on the queue's simulated device clock.
	start, end time.Duration
}

// Wait blocks until the command finished and returns its error.
func (e *Event) Wait() error {
	<-e.done
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// ProfilingInfo returns the simulated-device start and end times; valid
// after completion (like CL_PROFILING_COMMAND_START/END).
func (e *Event) ProfilingInfo() (start, end time.Duration, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.status != Complete && e.status != Failed {
		return 0, 0, fmt.Errorf("opencl: profiling info unavailable before completion of %q", e.name)
	}
	return e.start, e.end, e.err
}

// Duration returns the simulated execution time of the command.
func (e *Event) Duration() (time.Duration, error) {
	s, en, err := e.ProfilingInfo()
	if err != nil {
		return 0, err
	}
	return en - s, nil
}

// command is one queue entry.
type command struct {
	ev       *Event
	modelDur time.Duration
	waits    []*Event
	run      func() error
}

// CommandQueue is an in-order queue on one device. Commands execute
// asynchronously on a dedicated goroutine in submission order; each
// command advances the simulated device clock by its modelled duration.
type CommandQueue struct {
	Device *Device

	mu       sync.Mutex
	simClock time.Duration
	pending  chan command
	wg       sync.WaitGroup
	closed   bool

	// Telemetry handles, set once by SetTelemetry before commands are
	// enqueued; all nil (no-op) when tracing is off.
	tr    *flight.Trace      // the recorder's run trace
	cCmds *telemetry.Counter // commands completed
}

// SetTelemetry attaches the queue to a recorder: every command gets an
// "enqueue" instant plus two "command" spans whose detail is the
// command name — one on the wall-clock worker track (host-observed
// execution) and one on the simulated device clock (the profiled
// start/end the paper's event profiling reports). Must be called
// before the first enqueue.
func (q *CommandQueue) SetTelemetry(rec *telemetry.Recorder) {
	q.tr = rec.Trace()
	q.cCmds = rec.Counter("queue.commands", "events", "OpenCL commands completed")
}

// track names one of the queue's two timelines ("worker", "device").
func (q *CommandQueue) track(side string) string {
	return "queue[" + q.Device.Name + "] " + side
}

// NewCommandQueue creates an in-order queue for the device.
func NewCommandQueue(d *Device) (*CommandQueue, error) {
	if d == nil {
		return nil, fmt.Errorf("opencl: nil device")
	}
	q := &CommandQueue{Device: d, pending: make(chan command, 256)}
	q.wg.Add(1)
	go q.worker()
	return q, nil
}

// worker drains commands in order.
func (q *CommandQueue) worker() {
	defer q.wg.Done()
	for c := range q.pending {
		// Honour the wait list: block until every dependency completed,
		// and push the simulated start past the latest dependency end
		// (cross-queue synchronization, as clEnqueue*WithWaitList).
		var depEnd time.Duration
		depFailed := false
		for _, w := range c.waits {
			if err := w.Wait(); err != nil {
				depFailed = true
			}
			if _, e, err := w.ProfilingInfo(); err == nil && e > depEnd {
				depEnd = e
			}
		}

		q.mu.Lock()
		start := q.simClock
		if depEnd > start {
			start = depEnd
		}
		q.simClock = start + c.modelDur
		end := q.simClock
		q.mu.Unlock()

		if depFailed {
			c.ev.mu.Lock()
			c.ev.status = Failed
			c.ev.start = start
			c.ev.end = end
			c.ev.err = fmt.Errorf("opencl: command %q aborted: a wait-list dependency failed", c.ev.name)
			c.ev.mu.Unlock()
			close(c.ev.done)
			continue
		}

		c.ev.mu.Lock()
		c.ev.status = Running
		c.ev.start = start
		c.ev.mu.Unlock()

		w0 := q.tr.Now()
		err := c.run()
		if q.tr != nil {
			q.tr.Put(flight.Span{Track: q.track("worker"), Name: "command", Detail: c.ev.name,
				StartUS: w0, EndUS: q.tr.Now()})
			q.tr.Put(flight.Span{Track: q.track("device"), Clock: flight.DeviceClock, Name: "command",
				Detail: c.ev.name, StartUS: start.Microseconds(), EndUS: end.Microseconds()})
		}
		q.cCmds.Add(1)

		c.ev.mu.Lock()
		c.ev.end = end
		c.ev.err = err
		if err != nil {
			c.ev.status = Failed
		} else {
			c.ev.status = Complete
		}
		c.ev.mu.Unlock()
		close(c.ev.done)
	}
}

// enqueue adds a command; modelDur feeds the simulated device clock and
// waits is the cl_event wait list the command must honour.
func (q *CommandQueue) enqueue(name string, modelDur time.Duration, waits []*Event, run func() error) (*Event, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, fmt.Errorf("opencl: enqueue %q on released queue", name)
	}
	q.mu.Unlock()
	for i, w := range waits {
		if w == nil {
			return nil, fmt.Errorf("opencl: nil event %d in wait list of %q", i, name)
		}
	}
	ev := &Event{name: name, done: make(chan struct{})}
	if q.tr != nil {
		now := q.tr.Now()
		q.tr.Put(flight.Span{Track: q.track("worker"), Name: "enqueue", Detail: name, StartUS: now, EndUS: now})
	}
	q.pending <- command{ev: ev, modelDur: modelDur, waits: waits, run: run}
	return ev, nil
}

// Finish blocks until all previously enqueued commands complete — the
// clFinish the paper's host calls before stopping the power window.
func (q *CommandQueue) Finish() error {
	ev, err := q.enqueue("finish-fence", 0, nil, func() error { return nil })
	if err != nil {
		return err
	}
	return ev.Wait()
}

// Release shuts the queue down after draining it.
func (q *CommandQueue) Release() error {
	if err := q.Finish(); err != nil {
		return err
	}
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.pending)
	}
	q.mu.Unlock()
	q.wg.Wait()
	return nil
}

// SimClock returns the simulated device time consumed so far.
func (q *CommandQueue) SimClock() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.simClock
}

// Kernel is a compiled kernel: a closure over the simulation substrates
// plus an optional duration model feeding event profiling.
type Kernel struct {
	Name string
	// Run executes the kernel functionally.
	Run func(nd NDRange) error
	// Model predicts the device execution time for profiling; nil means
	// zero simulated duration.
	Model func(nd NDRange) time.Duration
}

// EnqueueNDRange launches a kernel over an NDRange asynchronously.
func (q *CommandQueue) EnqueueNDRange(k *Kernel, nd NDRange) (*Event, error) {
	if k == nil || k.Run == nil {
		return nil, fmt.Errorf("opencl: nil kernel")
	}
	if err := nd.Validate(); err != nil {
		return nil, err
	}
	var dur time.Duration
	if k.Model != nil {
		dur = k.Model(nd)
	}
	return q.enqueue("ndrange:"+k.Name, dur, nil, func() error { return k.Run(nd) })
}

// EnqueueTask launches a kernel as a single-threaded Task (the paper's .c
// kernel mode).
func (q *CommandQueue) EnqueueTask(k *Kernel) (*Event, error) {
	return q.EnqueueNDRange(k, TaskRange)
}

// EnqueueReadBuffer copies elems float32 values from device buffer offset
// into host[hostOffset:], charging one PCIe request on the simulated
// clock. Optional trailing events form the wait list.
func (q *CommandQueue) EnqueueReadBuffer(b *Buffer, offset int64, host []float32, hostOffset int64, elems int64, waits ...*Event) (*Event, error) {
	if b == nil {
		return nil, fmt.Errorf("opencl: nil buffer")
	}
	if b.Flags() == ReadOnly {
		return nil, fmt.Errorf("%w: reading host-only buffer %q", ErrAccessViolation, b.Name())
	}
	if hostOffset < 0 || hostOffset+elems > int64(len(host)) {
		return nil, fmt.Errorf("opencl: host range [%d,%d) outside destination of %d", hostOffset, hostOffset+elems, len(host))
	}
	dur := time.Duration(q.Device.PCIe.TransferTime(elems*4) * float64(time.Second))
	return q.enqueue("read:"+b.Name(), dur, waits, func() error {
		return b.ReadFloat32s(offset, host[hostOffset:hostOffset+elems])
	})
}
