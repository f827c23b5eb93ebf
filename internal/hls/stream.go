// Package hls models the high-level-synthesis constructs the paper's FPGA
// design is built from (Xilinx Vivado HLS via SDAccel, Section II-A):
//
//   - Stream: a bounded blocking FIFO standing in for hls::stream, the
//     single-producer/single-consumer channel that the DATAFLOW pragma
//     requires between the GammaRNG and Transfer processes (Listing 1).
//     Values move in bursts (WriteBurst/ReadBurst), the granularity of
//     the 512-bit-word transfers.
//   - Dataflow: a process network runner (goroutines joined with error
//     collection), standing in for `#pragma HLS DATAFLOW`.
//
// The Listing 2 cycle models (initiation-interval scheduling, the
// delay-register array, the delayed loop exit) live in this package's
// tests; the engine's block phase in internal/core runs the loop itself.
package hls

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/flight"
)

// ErrStreamClosed is returned by ReadBurst once the producer closed the
// stream and the buffer drained, and wrapped by the panic of a
// WriteBurst on a closed stream.
var ErrStreamClosed = errors.New("hls: stream closed")

// Stream is a bounded blocking FIFO — the software analogue of
// hls::stream<T>. Like its hardware counterpart it is intended for a
// single producer and a single consumer. It records high-water occupancy
// so tests can verify the interleaving claims of Fig. 3.
//
// Transport granularity: WriteBurst/ReadBurst move slices through the
// FIFO in chunked copies, amortizing synchronization over whole
// 512-bit-word batches; a one-value slice is the per-cycle handshake of
// Listing 1.
//
// Close/drain contract (the dataflow shutdown protocol): the producer —
// and only the producer — calls Close when it will write no more
// values, including on its error paths (typically via defer). The
// consumer keeps reading; once the FIFO drains, every further ReadBurst
// fails immediately and deterministically with ErrStreamClosed — it
// never blocks. A producer that returns without closing leaves the
// consumer blocked forever, which Dataflow cannot detect; the close
// obligation is therefore part of the producer's contract, not an
// optimization. See TestStreamCloseDrainDeterministic.
//
// A write racing a Close is a contract violation (only the producer may
// close), but it must fail loudly, not corrupt the FIFO: every enqueue
// happens under the same lock that Close takes, so a racing WriteBurst
// either completes before the close or panics with an error wrapping
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
	// sampleMask thins the push/pop instants: a burst records one
	// instant per crossed window of sampleMask+1 values (block/starve
	// spans are always recorded).
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

// WriteBurst enqueues every value of vs in order, blocking as needed.
// The transfer is chunked: each chunk is one copy into the ring under a
// single lock acquisition, so a burst costs O(len/chunk) synchronization
// operations instead of O(len). The values are copied — the caller may
// reuse vs immediately. Bursts larger than the FIFO depth are legal and
// drain incrementally against the consumer.
//
// A WriteBurst on a closed stream — or one interrupted by a close
// mid-burst — panics with an error wrapping ErrStreamClosed;
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
		// One sampled instant per crossed sampling window, so the trace
		// density does not depend on the burst size.
		if win := p.sampleMask + 1; after/win != before/win {
			p.instant("stream.push", after)
		}
	}
}

// ReadBurst fills dst from the FIFO in order, blocking until either dst
// is full or the stream is closed and drained. It returns the number of
// values read; n < len(dst) happens only on a closed-and-drained
// stream. When the stream closes before any value could be read, it
// returns (0, err) with err wrapping ErrStreamClosed, the consumer's
// deterministic end-of-stream signal (check with errors.Is). Like
// WriteBurst, each chunk moves under one lock acquisition.
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

// Close marks the producer side finished; the consumer can drain the
// remaining values, after which ReadBurst fails with ErrStreamClosed
// instead of blocking. Closing twice is a no-op. Producers must Close on
// every exit path (use defer), or the consumer side of the dataflow
// network deadlocks waiting for data that will never arrive. Close wakes every
// blocked ReadBurst (which drains or fails) and every blocked WriteBurst
// (which panics with ErrStreamClosed — see the race note on Stream).
func (s *Stream[T]) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.notEmpty.Broadcast()
		s.notFull.Broadcast()
	}
}

// Len returns the current FIFO occupancy.
func (s *Stream[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Stats returns (writes, reads, high-water occupancy).
func (s *Stream[T]) Stats() (writes, reads uint64, highWater int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes, s.reads, s.highWater
}
