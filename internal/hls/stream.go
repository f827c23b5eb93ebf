// Package hls models the high-level-synthesis constructs the paper's FPGA
// design is built from (Xilinx Vivado HLS via SDAccel, Section II-A):
//
//   - Stream: a bounded blocking FIFO equivalent to hls::stream, the
//     single-producer/single-consumer channel that the DATAFLOW pragma
//     requires between the GammaRNG and Transfer processes (Listing 1).
//   - RegDelay: the completely partitioned delay-register array of
//     Listing 2 (`prevCounter[breakId]` updated by `UpdateRegUI`), which
//     breaks the loop-carried dependency on the output counter.
//   - Dependence/ScheduleII: the initiation-interval arithmetic an HLS
//     scheduler performs over loop-carried dependencies — this is where
//     the paper's II=1 claim is made checkable.
//   - PipelinedLoop: latency/II → total cycle count for a pipelined loop.
//   - Dataflow: a process network runner (goroutines joined with error
//     collection), standing in for `#pragma HLS DATAFLOW`.
package hls

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/flight"
)

// ErrStreamClosed is returned by Read after the producer closed the
// stream and the buffer drained, and by Write on a closed stream.
var ErrStreamClosed = errors.New("hls: stream closed")

// Stream is a bounded blocking FIFO — the software analogue of
// hls::stream<T>. Like its hardware counterpart it is intended for a
// single producer and a single consumer; unlike a raw Go channel it
// supports non-blocking probes (Empty/Full/TryRead) that the cycle-level
// simulations use, and records high-water occupancy so tests can verify
// the interleaving claims of Fig. 3.
//
// Transport granularity: Write/Read move one value per operation (the
// per-cycle handshake of Listing 1); WriteBurst/ReadBurst move slices
// through the same FIFO in chunked copies, amortizing synchronization
// over whole 512-bit-word batches. The two APIs share one FIFO, so
// mixing them preserves order, and the value sequence a consumer
// observes is identical either way (the engine's batched-vs-per-value
// equivalence test pins this).
//
// Close/drain contract (the dataflow shutdown protocol): the producer —
// and only the producer — calls Close when it will write no more
// values, including on its error paths (typically via defer). The
// consumer keeps Reading; once the FIFO drains, every further Read
// fails immediately and deterministically with ErrStreamClosed — it
// never blocks. A producer that returns without closing leaves the
// consumer blocked forever, which Dataflow cannot detect; the close
// obligation is therefore part of the producer's contract, not an
// optimization. See TestStreamCloseDrainDeterministic.
//
// A Write racing a Close is a contract violation (only the producer may
// close), but it must fail loudly, not corrupt the FIFO: every enqueue
// happens under the same lock that Close takes, so a racing Write either
// completes before the close or panics with an error wrapping
// ErrStreamClosed — never a raw runtime panic. See
// TestStreamWriteCloseRaceStress.
type Stream[T any] struct {
	name string

	mu       sync.Mutex
	notFull  sync.Cond // producer waits: FIFO at capacity
	notEmpty sync.Cond // consumer waits: FIFO empty, not closed
	buf      []T       // ring storage; len(buf) == depth
	head     int       // index of the oldest value
	count    int       // live values in the ring
	closed   bool

	// probe is the optional telemetry hook; set once via Instrument
	// before the stream is shared between goroutines, nil when tracing
	// is off (the fast paths below check it once per operation).
	probe *streamProbe

	// Telemetry (guarded by mu).
	writes    uint64
	reads     uint64
	highWater int
}

// streamProbe carries the telemetry handles of an instrumented stream.
type streamProbe struct {
	tr          *flight.Trace // the recorder's run trace, nil when it has none
	track       string
	pushes      *telemetry.Counter
	pops        *telemetry.Counter
	pushBlockNS *telemetry.Counter
	popBlockNS  *telemetry.Counter
	// Burst accounting: how many values moved through the batched API
	// and in how many burst operations — the stall report derives the
	// realized batch size from the pair.
	burstValues *telemetry.Counter
	burstOps    *telemetry.Counter
	// Live-metrics instruments: FIFO occupancy after the most recent
	// operation, and the per-wait blocked/starved duration distributions
	// (the counters above only expose totals; the histograms expose the
	// tail — one long stall vs many short ones).
	occupancy *telemetry.Gauge
	blockUS   *telemetry.Histogram
	starveUS  *telemetry.Histogram
	// sampleMask thins the per-value push/pop instants: one is
	// recorded when count&sampleMask == 0; burst operations record one
	// instant per crossed sampling window (block/starve spans are
	// always recorded).
	sampleMask uint64
}

// Instrument attaches the stream to a recorder: push/pop counters (bulk
// incremented by the burst API), burst-size counters, blocked-time
// counters for the stall report, and "stream.block(full)" /
// "stream.starve(empty)" spans (plus sampled "stream.push" /
// "stream.pop" instants) on the run trace's wall-clock track named
// after the stream. Must be called before the stream is shared between
// goroutines; a nil recorder leaves the stream un-instrumented.
func (s *Stream[T]) Instrument(rec *telemetry.Recorder) {
	if rec == nil {
		return
	}
	s.probe = &streamProbe{
		tr:    rec.Trace(),
		track: "stream " + s.name,
		pushes: rec.Counter("stream."+s.name+".push", "values",
			fmt.Sprintf("hls::stream %q values written", s.name)),
		pops: rec.Counter("stream."+s.name+".pop", "values",
			fmt.Sprintf("hls::stream %q values read", s.name)),
		pushBlockNS: rec.Counter("stream."+s.name+".push-block", "ns",
			fmt.Sprintf("hls::stream %q producer blocked (FIFO full)", s.name)),
		popBlockNS: rec.Counter("stream."+s.name+".pop-block", "ns",
			fmt.Sprintf("hls::stream %q consumer starved (FIFO empty)", s.name)),
		burstValues: rec.Counter("stream."+s.name+".burst-values", "values",
			fmt.Sprintf("hls::stream %q values moved by the burst API", s.name)),
		burstOps: rec.Counter("stream."+s.name+".burst-ops", "events",
			fmt.Sprintf("hls::stream %q burst operations", s.name)),
		occupancy: rec.Gauge("stream."+s.name+".occupancy", "values",
			fmt.Sprintf("hls::stream %q FIFO occupancy after the latest operation", s.name)),
		blockUS: rec.Histogram("stream."+s.name+".block-us", "us",
			fmt.Sprintf("hls::stream %q per-wait producer blocked duration (FIFO full)", s.name)),
		starveUS: rec.Histogram("stream."+s.name+".starve-us", "us",
			fmt.Sprintf("hls::stream %q per-wait consumer starved duration (FIFO empty)", s.name)),
		sampleMask: 255,
	}
}

// instant records a sampled push/pop point carrying the running count.
func (p *streamProbe) instant(name string, count uint64) {
	now := p.tr.Now()
	p.tr.Put(flight.Span{Track: p.track, Name: name, StartUS: now, EndUS: now, Arg: int64(count)})
}

// NewStream creates a stream with the given FIFO depth (≥1) and a
// diagnostic name. Depths below 1 are clamped to 1 (configuration
// layers reject negative depths before they reach here; see
// core.Config.StreamDepth).
func NewStream[T any](name string, depth int) *Stream[T] {
	if depth < 1 {
		depth = 1
	}
	s := &Stream[T]{buf: make([]T, depth), name: name}
	s.notFull.L = &s.mu
	s.notEmpty.L = &s.mu
	return s
}

// Name returns the diagnostic name.
func (s *Stream[T]) Name() string { return s.name }

// Depth returns the FIFO capacity.
func (s *Stream[T]) Depth() int { return len(s.buf) }

// enqueue appends v to the ring. Caller holds mu and guarantees space.
func (s *Stream[T]) enqueue(v T) {
	s.buf[(s.head+s.count)%len(s.buf)] = v
	s.count++
	s.writes++
	if s.count > s.highWater {
		s.highWater = s.count
	}
}

// dequeue removes the oldest value. Caller holds mu and guarantees count>0.
func (s *Stream[T]) dequeue() T {
	v := s.buf[s.head]
	s.head = (s.head + 1) % len(s.buf)
	s.count--
	s.reads++
	return v
}

// closedPanic panics with the documented write-after-close error.
// Caller must NOT hold mu.
func (s *Stream[T]) closedPanic() {
	panic(fmt.Errorf("%w: write on closed stream %q", ErrStreamClosed, s.name))
}

// waitNotFull blocks until there is space or the stream is closed,
// accumulating blocked time on the probe. Caller holds mu.
func (s *Stream[T]) waitNotFull(p *streamProbe) {
	if s.count < len(s.buf) || s.closed {
		return
	}
	var start time.Time
	if p != nil {
		start = time.Now()
	}
	for s.count == len(s.buf) && !s.closed {
		s.notFull.Wait()
	}
	if p != nil {
		blocked := time.Since(start)
		end := p.tr.Now()
		p.tr.Put(flight.Span{Track: p.track, Name: "stream.block(full)",
			StartUS: end - blocked.Microseconds(), EndUS: end, Arg: int64(s.count)})
		p.pushBlockNS.Add(blocked.Nanoseconds())
		p.blockUS.Record(blocked.Microseconds())
	}
}

// waitNotEmpty blocks until a value is available or the stream is
// closed, accumulating starved time on the probe. Caller holds mu.
func (s *Stream[T]) waitNotEmpty(p *streamProbe) {
	if s.count > 0 || s.closed {
		return
	}
	var start time.Time
	if p != nil {
		start = time.Now()
	}
	for s.count == 0 && !s.closed {
		s.notEmpty.Wait()
	}
	if p != nil {
		starved := time.Since(start)
		end := p.tr.Now()
		p.tr.Put(flight.Span{Track: p.track, Name: "stream.starve(empty)",
			StartUS: end - starved.Microseconds(), EndUS: end})
		p.popBlockNS.Add(starved.Nanoseconds())
		p.starveUS.Record(starved.Microseconds())
	}
}

// Write blocks until there is space, then enqueues v. Writing to a
// closed stream panics with an error wrapping ErrStreamClosed (a design
// error, as in HLS) — including when the close lands while the write is
// blocked on a full FIFO.
func (s *Stream[T]) Write(v T) {
	p := s.probe
	s.mu.Lock()
	s.waitNotFull(p)
	if s.closed {
		s.mu.Unlock()
		s.closedPanic()
	}
	s.enqueue(v)
	n := s.writes
	occ := s.count
	s.notEmpty.Signal()
	s.mu.Unlock()
	if p != nil {
		p.occupancy.Set(int64(occ))
		p.pushes.Add(1)
		if n&p.sampleMask == 0 {
			p.instant("stream.push", n)
		}
	}
}

// WriteBurst enqueues every value of vs in order, blocking as needed.
// The transfer is chunked: each chunk is one copy into the ring under a
// single lock acquisition, so a burst costs O(len/chunk) synchronization
// operations instead of O(len). The values are copied — the caller may
// reuse vs immediately. Bursts larger than the FIFO depth are legal and
// drain incrementally against the consumer.
//
// Like Write, a WriteBurst on a closed stream — or one interrupted by a
// close mid-burst — panics with an error wrapping ErrStreamClosed;
// values enqueued before the close remain readable by the consumer.
func (s *Stream[T]) WriteBurst(vs []T) {
	if len(vs) == 0 {
		return
	}
	p := s.probe
	s.mu.Lock()
	before := s.writes
	written := 0
	for written < len(vs) {
		s.waitNotFull(p)
		if s.closed {
			s.mu.Unlock()
			s.closedPanic()
		}
		n := len(s.buf) - s.count
		if rem := len(vs) - written; n > rem {
			n = rem
		}
		// Two-segment ring copy: tail..end, then wraparound.
		tail := (s.head + s.count) % len(s.buf)
		c := copy(s.buf[tail:], vs[written:written+n])
		if c < n {
			copy(s.buf, vs[written+c:written+n])
		}
		s.count += n
		s.writes += uint64(n)
		written += n
		if s.count > s.highWater {
			s.highWater = s.count
		}
		s.notEmpty.Signal()
	}
	after := s.writes
	occ := s.count
	s.mu.Unlock()
	if p != nil {
		p.occupancy.Set(int64(occ))
		p.pushes.Add(int64(len(vs)))
		p.burstValues.Add(int64(len(vs)))
		p.burstOps.Add(1)
		// One sampled instant per crossed sampling window, so burst and
		// per-value transports produce comparable trace densities.
		if win := p.sampleMask + 1; after/win != before/win {
			p.instant("stream.push", after)
		}
	}
}

// Read blocks until a value is available and returns it. After Close,
// the buffered values drain in order and every subsequent Read fails
// immediately — never blocks — with an error wrapping ErrStreamClosed.
// Check with errors.Is; the failure is the consumer's deterministic
// end-of-stream signal.
func (s *Stream[T]) Read() (T, error) {
	p := s.probe
	s.mu.Lock()
	s.waitNotEmpty(p)
	if s.count == 0 { // closed and drained
		s.mu.Unlock()
		var zero T
		return zero, fmt.Errorf("%w: read on drained stream %q", ErrStreamClosed, s.name)
	}
	v := s.dequeue()
	n := s.reads
	occ := s.count
	s.notFull.Signal()
	s.mu.Unlock()
	if p != nil {
		p.occupancy.Set(int64(occ))
		p.pops.Add(1)
		if n&p.sampleMask == 0 {
			p.instant("stream.pop", n)
		}
	}
	return v, nil
}

// ReadBurst fills dst from the FIFO in order, blocking until either dst
// is full or the stream is closed and drained. It returns the number of
// values read; n < len(dst) happens only on a closed-and-drained
// stream. When the stream closes before any value could be read, it
// returns (0, err) with err wrapping ErrStreamClosed — the batched
// equivalent of Read's end-of-stream signal. Like WriteBurst, each
// chunk moves under one lock acquisition.
func (s *Stream[T]) ReadBurst(dst []T) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	p := s.probe
	s.mu.Lock()
	before := s.reads
	read := 0
	for read < len(dst) {
		s.waitNotEmpty(p)
		if s.count == 0 { // closed and drained
			break
		}
		n := s.count
		if rem := len(dst) - read; n > rem {
			n = rem
		}
		// Two-segment ring copy: head..end, then wraparound.
		c := copy(dst[read:read+n], s.buf[s.head:])
		if c < n {
			copy(dst[read+c:read+n], s.buf)
		}
		s.head = (s.head + n) % len(s.buf)
		s.count -= n
		s.reads += uint64(n)
		read += n
		s.notFull.Signal()
	}
	after := s.reads
	occ := s.count
	s.mu.Unlock()
	if p != nil && read > 0 {
		p.occupancy.Set(int64(occ))
		p.pops.Add(int64(read))
		p.burstValues.Add(int64(read))
		p.burstOps.Add(1)
		if win := p.sampleMask + 1; after/win != before/win {
			p.instant("stream.pop", after)
		}
	}
	if read == 0 {
		return 0, fmt.Errorf("%w: read on drained stream %q", ErrStreamClosed, s.name)
	}
	return read, nil
}

// MustRead is Read for contexts where closure is a programming error.
func (s *Stream[T]) MustRead() T {
	v, err := s.Read()
	if err != nil {
		panic(err)
	}
	return v
}

// TryRead returns a value if one is immediately available. A false
// result means either "momentarily empty" or "closed and drained"; a
// consumer polling with TryRead distinguishes the two with Closed()
// (closed-and-empty will never become readable again). A closed stream
// still holding buffered values keeps yielding them.
func (s *Stream[T]) TryRead() (T, bool) {
	p := s.probe
	s.mu.Lock()
	if s.count == 0 {
		s.mu.Unlock()
		var zero T
		return zero, false
	}
	v := s.dequeue()
	occ := s.count
	s.notFull.Signal()
	s.mu.Unlock()
	if p != nil {
		p.occupancy.Set(int64(occ))
		p.pops.Add(1)
	}
	return v, true
}

// Close marks the producer side finished; the consumer can drain the
// remaining values, after which Read fails with ErrStreamClosed instead
// of blocking. Closing twice is a no-op. Producers must Close on every
// exit path (use defer), or the consumer side of the dataflow network
// deadlocks waiting for data that will never arrive. Close wakes every
// blocked Read (which drains or fails) and every blocked Write (which
// panics with ErrStreamClosed — see the race note on Stream).
func (s *Stream[T]) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.notEmpty.Broadcast()
		s.notFull.Broadcast()
	}
}

// Closed reports whether the producer has closed the stream (values may
// still be buffered; see Len).
func (s *Stream[T]) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Len returns the current FIFO occupancy.
func (s *Stream[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Empty reports whether the FIFO holds no values — hls::stream::empty.
func (s *Stream[T]) Empty() bool { return s.Len() == 0 }

// Full reports whether the FIFO is at capacity — hls::stream::full. A
// closed stream still reports Full while its buffered values await the
// consumer; it can never refill, so Full goes false permanently once
// the consumer drains below capacity.
func (s *Stream[T]) Full() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count == len(s.buf)
}

// Stats returns (writes, reads, high-water occupancy).
func (s *Stream[T]) Stats() (writes, reads uint64, highWater int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes, s.reads, s.highWater
}

// RegDelay is the completely partitioned delay register array of
// Listing 2: a shift register of BreakID+1 stages. Each Update call
// models one `UpdateRegUI(breakId, counter, prevCounter)` invocation at
// the top of the pipelined loop: the current counter enters stage 0 and
// the oldest value becomes readable at index BreakID. Reading the counter
// through the delay line lengthens the loop-carried dependency distance,
// which is exactly what restores II=1 (see ScheduleII).
type RegDelay struct {
	regs []uint32
}

// NewRegDelay builds a delay line with breakID+1 stages, initialized to
// zero (matching the `unsigned int prevCounter[breakId+1]` array whose
// contents start below any loop limit).
func NewRegDelay(breakID int) *RegDelay {
	if breakID < 0 {
		breakID = 0
	}
	return &RegDelay{regs: make([]uint32, breakID+1)}
}

// Update shifts the line and inserts the current value at stage 0.
func (r *RegDelay) Update(current uint32) {
	copy(r.regs[1:], r.regs[:len(r.regs)-1])
	r.regs[0] = current
}

// Delayed returns the value at the last stage — `prevCounter[breakId]` —
// i.e. the counter as it was len(regs) iterations ago (one iteration ago
// for breakID = 0, since Update runs before the loop test uses it).
func (r *RegDelay) Delayed() uint32 { return r.regs[len(r.regs)-1] }

// Stages returns the number of delay stages (BreakID+1).
func (r *RegDelay) Stages() int { return len(r.regs) }
