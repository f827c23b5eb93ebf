package decwi

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/decwi/decwi/internal/core"
	"github.com/decwi/decwi/internal/telemetry/flight"
)

// ParallelOptions parameterizes GenerateParallel: the GenerateOptions
// workload plus scheduling knobs. The knobs are pure execution policy —
// every (Workers, ChunkWorkItems) choice yields bitwise-identical
// output for the same GenerateOptions, which is what lets Generate be
// this scheduler at one worker. Chunks always run the fused pipe:
// candidate blocks written directly at their device-layout offsets.
type ParallelOptions struct {
	GenerateOptions
	// Workers caps how many chunks execute concurrently. 0 selects
	// GOMAXPROCS; clamped to the chunk count.
	Workers int
	// ChunkWorkItems is the chunk size in work-items, the unit of work
	// stealing; 0 selects the even split ceil(WorkItems/min(GOMAXPROCS,
	// WorkItems)), and larger values clamp to one chunk. Smaller chunks
	// give the work-stealing cursor more opportunities to absorb
	// rejection-sampling imbalance at slightly higher claim overhead.
	ChunkWorkItems int
	// Trace, when non-nil, receives one "chunk[w]" span (w = executing
	// worker, on track "engine worker w") per executed chunk, parented
	// under TraceSpan — the serve path's flight recorder links one job's
	// HTTP trace down into the work-stealing execution through these,
	// and decwi-trace passes its run trace. Pure observability: a nil
	// Trace skips the sink entirely and the bytes never depend on either
	// field.
	Trace     *flight.Trace
	TraceSpan flight.SpanID
}

// ParallelResult carries the generated data and scheduler metadata.
type ParallelResult struct {
	// Values holds Scenarios·Sectors gamma variates in the engine's
	// device layout — byte-for-byte the same slice content Generate
	// produces for the same GenerateOptions.
	Values []float32
	// BlockOffsets has WorkItems+1 entries framing each work-item's
	// contiguous block of Values (sector-major inside the block).
	BlockOffsets []int64
	// WorkItems is the number of decoupled pipelines generated.
	WorkItems int
	// Chunks is the number of work-item chunks the run was split into.
	Chunks int
	// Workers is the number of scheduler workers actually used.
	Workers int
	// Steals counts chunks executed by a worker other than their
	// static round-robin owner — the work the dynamic cursor moved to
	// absorb rejection-sampling imbalance.
	Steals int
	// ChunkImbalance is the max/min chunk wall-time ratio (1 when
	// fewer than two chunks ran). Static sharding would stall its
	// fastest worker for (ChunkImbalance-1)/ChunkImbalance of the
	// slowest chunk's time; work stealing does not.
	ChunkImbalance float64
	// RejectionRate is the observed combined rate (Eq. (1)'s r),
	// identical to the sequential run's.
	RejectionRate float64

	sectors int
}

// Sector returns every value of one sector across work-items — the
// same per-sector marginal GenerateResult.Sector yields.
func (r *ParallelResult) Sector(k int) []float32 {
	out := make([]float32, 0, r.BlockOffsets[r.WorkItems]/int64(r.sectors))
	for w := 0; w < r.WorkItems; w++ {
		limitMain := (r.BlockOffsets[w+1] - r.BlockOffsets[w]) / int64(r.sectors)
		start := r.BlockOffsets[w] + int64(k)*limitMain
		out = append(out, r.Values[start:start+limitMain]...)
	}
	return out
}

// parallelChunkFault, when non-nil, injects a failure before the given
// chunk executes; ctx is the run's context, so a hook can hold a claim
// until a cancellation is visible. Test hook for the cancellation path:
// rejection sampling has no practical way to make a mid-run chunk fail
// naturally.
var parallelChunkFault func(ctx context.Context, chunk int) error

// GenerateParallel runs configuration c sharded by work-item — the
// axis the paper proves is dependency-free. Each work-item's values
// depend only on its own split seed (SplitMix64 stream splitting) and
// its scenario quota, both fixed by the options alone, so chunks of
// work-items can execute on any worker in any order and land directly
// at their final device-layout offsets (zero-copy assembly).
//
// Output is bitwise-identical for every (Workers, ChunkWorkItems)
// choice and any goroutine schedule — Generate is the
// one-worker case, and Session.EnqueueGamma reads back the same bytes.
// The scheduling knobs only decide how the work-item axis is
// partitioned and claimed.
//
// Scheduling is work stealing over an atomic chunk cursor: rejection
// sampling makes per-work-item runtime data-dependent (the paper's own
// motivation for decoupling), so workers claim the next unclaimed
// chunk as they finish rather than owning a static share. The first
// chunk error cancels all outstanding work.
func GenerateParallel(c ConfigID, opt ParallelOptions) (*ParallelResult, error) {
	return GenerateParallelContext(context.Background(), c, opt)
}

// GenerateParallelContext is GenerateParallel bounded by ctx: a
// cancellation or deadline (a service timeout, a disconnected client, a
// draining server) stops the scheduler at the next chunk or work-item
// boundary and returns the cause instead of a result. A run that
// completes is unaffected by how it was bounded — the bytes depend only
// on the GenerateOptions, never on the context.
func GenerateParallelContext(parent context.Context, c ConfigID, opt ParallelOptions) (*ParallelResult, error) {
	k, err := c.kernel()
	if err != nil {
		return nil, err
	}
	opt, chunks, err := normalizeParallel(k, opt)
	if err != nil {
		return nil, err
	}

	eng, err := core.NewEngine(engineConfig(k, opt.GenerateOptions))
	if err != nil {
		return nil, err
	}
	wi := opt.WorkItems
	chunkWI := opt.ChunkWorkItems
	offsets := eng.BlockOffsets()
	values := make([]float32, offsets[wi])
	stats := make([]core.WorkItemStats, wi)

	rec := opt.Telemetry
	cChunks := rec.Counter("parallel.chunks", "events",
		"work-item chunks executed by the work-stealing scheduler")
	cSteals := rec.Counter("parallel.steals", "events",
		"chunks claimed by a worker other than their static owner")
	hChunkUS := rec.Histogram("parallel.chunk-service-us", "us",
		"per-chunk wall-clock service time — the skew distribution work stealing absorbs")
	hStealUS := rec.Histogram("parallel.steal-service-us", "us",
		"service time of stolen chunks (claimed off their static owner)")
	gActive := rec.Gauge("parallel.workers-active", "events",
		"scheduler workers currently executing a chunk")
	// chunkDesc names a chunk's work for its error message and its trace
	// detail; formatted only when one of those is built.
	chunkDesc := func(chunk int) string {
		lo := chunk * chunkWI
		return fmt.Sprintf("work-items [%d,%d)", lo, min(lo+chunkWI, wi))
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var (
		cursor   atomic.Int64
		steals   atomic.Int64
		firstErr atomic.Value // error
		errOnce  sync.Once
		chunkDur = make([]int64, chunks) // wall ns per chunk
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr.Store(err)
			cancel()
		})
	}

	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cBusy := rec.Counter(fmt.Sprintf("parallel.worker-busy[%d]", w), "ns",
				"wall time this scheduler worker spent executing chunks")
			var spanName, track string
			if opt.Trace != nil {
				spanName, track = fmt.Sprintf("chunk[%d]", w), fmt.Sprintf("engine worker %d", w)
			}
			for {
				chunk := int(cursor.Add(1) - 1)
				if chunk >= chunks || ctx.Err() != nil {
					return
				}
				stolen := chunk%opt.Workers != w
				gActive.Add(1)
				tsStart := opt.Trace.Now()
				start := time.Now()
				err := parallelChunkFaultErr(ctx, chunk)
				if err == nil {
					lo := chunk * chunkWI
					err = eng.RunChunk(ctx, values, lo, min(lo+chunkWI, wi), stats)
				}
				elapsed := time.Since(start).Nanoseconds()
				gActive.Add(-1)
				if opt.Trace != nil {
					detail := chunkDesc(chunk)
					if stolen {
						detail += " (stolen)"
					}
					opt.Trace.Put(flight.Span{Parent: opt.TraceSpan, Track: track, Name: spanName,
						Detail: detail, Arg: int64(chunk), StartUS: tsStart, EndUS: opt.Trace.Now()})
				}
				chunkDur[chunk] = elapsed
				cBusy.Add(elapsed)
				hChunkUS.Record(elapsed / 1000)
				if stolen {
					steals.Add(1)
					cSteals.Add(1)
					hStealUS.Record(elapsed / 1000)
				}
				cChunks.Add(1)
				if err != nil {
					// Classify before failing: a context-caused chunk error
					// under a cancelled run context is not this chunk's own
					// failure — it is the cancellation surfacing mid-chunk.
					// The post-wait logic reports the sibling's first error
					// or the documented "parallel generation cancelled"
					// wrap. The ctx.Err() guard keeps an *injected*
					// context.Canceled (fault hook, wrapped library error)
					// on the failure path when nothing actually cancelled.
					if (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && ctx.Err() != nil {
						return
					}
					fail(fmt.Errorf("decwi: chunk %d (%s): %w", chunk, chunkDesc(chunk), err))
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if err, _ := firstErr.Load().(error); err != nil {
		return nil, err
	}
	// An external cancellation can empty the claim loop without any chunk
	// reporting an error (a worker observing ctx.Err() simply returns);
	// the partial buffer must not escape as a result.
	if err := parent.Err(); err != nil {
		return nil, fmt.Errorf("decwi: parallel generation cancelled: %w", err)
	}

	return &ParallelResult{
		Values:         values,
		BlockOffsets:   offsets,
		WorkItems:      wi,
		Chunks:         chunks,
		Workers:        opt.Workers,
		Steals:         int(steals.Load()),
		ChunkImbalance: chunkImbalance(chunkDur),
		RejectionRate:  core.CombineStats(stats),
		sectors:        opt.Sectors,
	}, nil
}

// parallelChunkFaultErr consults the test hook.
func parallelChunkFaultErr(ctx context.Context, chunk int) error {
	if parallelChunkFault == nil {
		return nil
	}
	return parallelChunkFault(ctx, chunk)
}

// chunkImbalance returns the max/min chunk wall-time ratio, the
// scheduler-level skew statistic. It reads only a run that returns a
// result, so every chunk ran to completion. With fewer than two chunks
// there is no skew to report: 1. Sub-resolution (0 ns) chunks clamp to
// 1 ns so tiny workloads do not divide by zero.
func chunkImbalance(durs []int64) float64 {
	if len(durs) < 2 {
		return 1
	}
	return float64(max(slices.Max(durs), 1)) / float64(max(slices.Min(durs), 1))
}
