// Package core implements the paper's primary contribution: fully
// decoupled OpenCL work-items on an FPGA-style dataflow substrate.
//
// The structure follows the paper's listings:
//
//   - Engine / DecoupledWorkItems (Listing 1): N independent
//     work-items, each with its own Mersenne-Twister streams and its own
//     offset into the single device buffer (device-level buffer
//     combining, Section III-E-2).
//   - generateWI (Listing 2): the single fully pipelined block computing,
//     correcting and only afterwards validating each gamma candidate,
//     with the delayed-counter MAINLOOP exit.
//
// The host's one generation path is RunChunk: each work-item's candidate
// blocks land straight in its rows of the device-layout buffer. The
// engine is *functional*: it produces the gamma data the validation
// layer (Fig. 6) and the CreditRisk+ application consume. The stream and
// the Transfer engine of Listings 1 and 4 (FIFO depth, II stalls, burst
// buffers, channel arbitration) are modelled cycle by cycle by
// internal/fpga's co-simulation, and kernel timing by its analytic
// model from the statistics this engine records (cycles, rejection
// rates).
package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/gamma"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/flight"
)

// Config describes one kernel build of the decoupled work-item engine.
type Config struct {
	// Transform selects the uniform-to-normal stage (Table I column 2).
	Transform normal.Kind
	// MTParams selects the Mersenne-Twister variant (Table I columns
	// 3-5: MT19937 or MT521).
	MTParams mt.Params
	// WorkItems is the number of decoupled pipelines (paper: 6 for
	// Config1/2, 8 for Config3/4, from place-and-route).
	WorkItems int
	// Scenarios and Sectors span the output grid; each work-item owns
	// Scenarios/WorkItems scenarios for every sector.
	Scenarios int64
	Sectors   int
	// SectorVariance is the gamma variance per sector; if
	// SectorVariances is non-nil it overrides per sector (len must be
	// Sectors).
	SectorVariance  float64
	SectorVariances []float64
	// StreamOffset fast-forwards every work-item's four Mersenne-Twister
	// streams by this many state words before generation begins — an
	// O(log n) seek through each stream (mt.Core.Jump). The default 0
	// leaves every stream at its seed state, so all pre-existing replay
	// tuples stay byte-identical; a nonzero offset deterministically
	// selects a later window of the same per-seed streams, which is what
	// checkpoint/resume and multi-process stream partitioning build on.
	StreamOffset uint64
	// BreakID is the counter delay index of Listing 2 ("here it
	// suffices to use zero").
	BreakID int
	// LimitMaxFactor bounds MAINLOOP trips at
	// LimitMaxFactor·limitMain + 1024 as a starvation guard. Default 8.
	LimitMaxFactor int64
	// Seed is the master seed; per-work-item streams are split from it.
	Seed uint64
	// Telemetry, when non-nil, records cycle telemetry for the run:
	// per-work-item cycle, rejection and feed-stream attribution, block
	// counters and — into its run trace — per-sector spans on each
	// work-item's cycle clock. A nil recorder leaves the hot paths on
	// their uninstrumented fast path. Tracing never perturbs the
	// generated data (see TestTelemetryDoesNotPerturbRNG).
	Telemetry *telemetry.Recorder
}

// setDefaults validates and fills defaults, returning a normalized copy.
func (c Config) setDefaults() (Config, error) {
	if c.WorkItems < 1 {
		return c, fmt.Errorf("core: WorkItems must be ≥ 1, got %d", c.WorkItems)
	}
	if c.Scenarios < 1 || c.Sectors < 1 {
		return c, fmt.Errorf("core: need positive scenarios (%d) and sectors (%d)", c.Scenarios, c.Sectors)
	}
	if c.SectorVariances != nil && len(c.SectorVariances) != c.Sectors {
		return c, fmt.Errorf("core: SectorVariances length %d != Sectors %d", len(c.SectorVariances), c.Sectors)
	}
	// Per-sector variances must each be positive: a zero/negative (or
	// NaN) entry is a degenerate gamma parameterization that previously
	// slipped past validation and failed deep inside the generator.
	for i, v := range c.SectorVariances {
		if !(v > 0) {
			return c, fmt.Errorf("core: SectorVariances[%d] must be positive, got %g", i, v)
		}
	}
	if c.SectorVariances == nil && !(c.SectorVariance > 0) {
		return c, fmt.Errorf("core: SectorVariance must be positive, got %g", c.SectorVariance)
	}
	if c.BreakID < 0 {
		return c, fmt.Errorf("core: BreakID must be ≥ 0, got %d", c.BreakID)
	}
	if c.LimitMaxFactor == 0 {
		c.LimitMaxFactor = 8
	}
	if c.LimitMaxFactor < 2 {
		return c, fmt.Errorf("core: LimitMaxFactor %d too small to survive rejection", c.LimitMaxFactor)
	}
	if c.MTParams.N == 0 {
		c.MTParams = mt.MT19937Params
	}
	return c, nil
}

// variance returns the sector's variance under either configuration mode.
func (c Config) variance(sector int) float64 {
	if c.SectorVariances != nil {
		return c.SectorVariances[sector]
	}
	return c.SectorVariance
}

// WorkItemStats is the per-pipeline telemetry of one run.
type WorkItemStats struct {
	WID       int
	Scenarios int64 // limitMain of this work-item
	Cycles    uint64
	// Accepted counts pipeline-level acceptances; it can exceed the
	// emitted output count by up to (BreakID+1) per sector, because the
	// overshoot iterations after the quota may accept candidates that
	// the counter<limitMain write guard then drops (Listing 2 keeps the
	// pipeline running until the delayed exit fires).
	Accepted      uint64
	RejectionRate float64 // Eq. (1) sense: extra trips per output
	Overshoot     int64   // delayed-exit extra trips, summed over sectors
}

// Engine executes Config's decoupled work-items.
//
// The run layout — per-work-item quotas, device-layout block offsets and
// per-work-item master seeds — is fixed at construction time and depends
// only on the configuration, never on how a run is executed. This is
// what makes a chunked run (RunChunk over any subset of work-items, in
// any order, on any goroutine) write the same bytes as any other.
type Engine struct {
	cfg     Config
	per     []int64  // per-work-item output quota (Listing 2's limitMain)
	offsets []int64  // device-layout block offsets, len WorkItems+1
	seeds   []uint64 // per-work-item master seeds (SplitMix64 split)
}

// NewEngine validates the configuration and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	c, err := cfg.setDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: c}
	e.per = e.splitScenarios()
	e.offsets = make([]int64, c.WorkItems+1)
	for w := 0; w < c.WorkItems; w++ {
		e.offsets[w+1] = e.offsets[w] + e.per[w]*int64(c.Sectors)
	}
	// Per-work-item master seeds are drawn through SplitMix64 *outputs*
	// (rng.StreamSeeds) rather than linear offsets: a linear offset by the
	// golden-ratio constant would alias with the generator's own internal
	// stream split (work-item w's stream k would equal work-item w+1's
	// stream k−1), producing cross-work-item correlation that the
	// Anderson-Darling validation catches.
	e.seeds = rng.StreamSeeds(c.Seed, c.WorkItems)
	return e, nil
}

// BlockOffsets returns a copy of the device-layout block offsets:
// work-item w's output occupies [BlockOffsets[w], BlockOffsets[w+1]) of
// the result buffer, sector-major inside the block.
func (e *Engine) BlockOffsets() []int64 { return append([]int64(nil), e.offsets...) }

// splitScenarios distributes Scenarios across work-items (earlier
// work-items absorb the remainder), mirroring how the host would pick
// per-work-item limits.
func (e *Engine) splitScenarios() []int64 {
	n := int64(e.cfg.WorkItems)
	base := e.cfg.Scenarios / n
	rem := e.cfg.Scenarios % n
	out := make([]int64, e.cfg.WorkItems)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

// transformSlug lowercases a transform name into a metric-name-safe
// instance label: "ICDF FPGA-style" → "icdf-fpga-style".
func transformSlug(k normal.Kind) string {
	s := []byte(k.String())
	for i, c := range s {
		switch {
		case c >= 'A' && c <= 'Z':
			s[i] = c + ('a' - 'A')
		case (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'):
		default:
			s[i] = '-'
		}
	}
	return string(s)
}

// instrumentTrips attaches (or, with telemetry off, detaches) the
// per-transform rejection-trip histogram to a generator. All work-items
// of a run share the transform, so they share one histogram — the
// distribution the paper's Sec. IV-E rejection rates summarize. Pooled
// generators go through this on every acquisition, so a histogram from
// an earlier run can never leak into the next (see getGenerator).
func (e *Engine) instrumentTrips(gen *gamma.Generator) {
	gen.InstrumentTrips(e.cfg.Telemetry.Histogram(
		"rng.gamma.trips["+transformSlug(e.cfg.Transform)+"]", "trips",
		"pipeline iterations per accepted gamma output (nested rejection-loop trip count)"))
}

// seekStreams positions a freshly (re)seeded generator at the
// configured stream offset with the O(log n) jump. The word-by-word walk
// (AdvanceStreams) stays as the test oracle it is checked against.
func (e *Engine) seekStreams(gen *gamma.Generator) {
	if off := e.cfg.StreamOffset; off != 0 {
		gen.JumpStreams(off)
	}
}

// blockCycles is the largest attempts-per-batch of the block compute
// path: big enough to amortize the bulk Mersenne-Twister fills (several
// MT521 state blocks, a third of an MT19937 one), small enough that the
// per-work-item scratch stays cache-resident. A sector's last blocks
// and its delayed-exit overshoot are shorter, bounded by the quota.
const blockCycles = 256

// scratchPool holds block scratch sized for blockCycles attempts. Chunks
// run on any goroutine, so a work-item borrows one for its run; within
// the run the scratch is reused with zero allocation.
var scratchPool = sync.Pool{New: func() any { return gamma.NewBlockScratch(blockCycles) }}

// generateWI runs work-item wid — Listing 2's SECLOOP over sectors,
// each a delayed-exit MAINLOOP — writing its output into
// dst[offsets[wid]:offsets[wid+1]] and its telemetry into stats[wid]
// (or a discarded record when stats is nil). The value sequence depends
// only on the work-item's split seed, quota and the configuration,
// which is what lets chunks run in any order on any goroutine. ctx,
// when non-nil, is polled at sector boundaries so a cancelled chunked
// run aborts promptly without perturbing any completed sector.
//
// Each sector runs on the block compute path (blockPhase.sector), which
// spends the same trips on the same Mersenne-Twister words and writes
// the same values as Listing 2's one-word gated MAINLOOP — the scalar
// oracle the equivalence tests keep (TestBlockComputeEquivalence).
func (e *Engine) generateWI(ctx context.Context, wid int, dst []float32, stats []WorkItemStats) error {
	cfg := e.cfg
	var st WorkItemStats
	stp := &st
	if stats != nil {
		stp = &stats[wid]
		*stp = WorkItemStats{}
	}
	limitMain := e.per[wid]
	limitMax := cfg.LimitMaxFactor*limitMain + 1024
	stp.WID = wid
	stp.Scenarios = limitMain

	gen := getGenerator(cfg.Transform, cfg.MTParams,
		gamma.MustFromVariance(cfg.variance(0)), e.seeds[wid])
	// (Re)attach this run's trip histogram: the pooled generator may carry
	// one from a previous run's recorder, and with telemetry off this
	// detaches it.
	e.instrumentTrips(gen)
	e.seekStreams(gen)
	defer putGenerator(cfg.Transform, cfg.MTParams, gen)
	scratch := scratchPool.Get().(*gamma.BlockScratch)
	defer scratchPool.Put(scratch)

	// Telemetry: a cycle-clock track timestamped by the generator's own
	// cycle counter. All handles are nil-safe no-ops when tracing is off,
	// and everything here is per-sector or per-block — the MAINLOOP body
	// itself carries no instrumentation.
	tr := cfg.Telemetry.Trace()
	var track string
	if tr != nil {
		track = fmt.Sprintf("GammaRNG[%d]", wid)
	}
	blk := blockPhase{
		gen: gen, scratch: scratch,
		dst:        dst[e.offsets[wid]:e.offsets[wid+1]],
		overshoot:  int64(cfg.BreakID) + 1,
		perAttempt: int64(cfg.Transform.UniformsPerCandidate()),
		cFills: cfg.Telemetry.Counter(fmt.Sprintf("rng.gamma[%d].block-fills", wid), "events",
			"bulk block-generation batches (CycleBlock calls)"),
		cWords: cfg.Telemetry.Counter(fmt.Sprintf("rng.gamma[%d].block-words", wid), "values",
			"Mersenne-Twister words consumed through bulk fills"),
		cBlocks: cfg.Telemetry.Counter(fmt.Sprintf("engine.fused-blocks[%d]", wid), "events",
			"candidate blocks generated directly into the device buffer by the fused pipe"),
		cDirect: cfg.Telemetry.Counter(fmt.Sprintf("engine.fused-direct[%d]", wid), "values",
			"outputs written to the device buffer without per-value transport (fused pipe block phase)"),
	}

	for sector := 0; sector < cfg.Sectors; sector++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: work-item %d cancelled before sector %d: %w", wid, sector, err)
			}
		}
		gen.SetParams(gamma.MustFromVariance(cfg.variance(sector)))
		sectorStart := int64(gen.Cycles())

		counter, trips, quotaAt := blk.sector(limitMain, limitMax)
		if counter < limitMain {
			return fmt.Errorf("core: work-item %d starved in sector %d: %d/%d outputs within limitMax=%d",
				wid, sector, counter, limitMain, limitMax)
		}
		stp.Overshoot += trips - (quotaAt + 1)
		end := int64(gen.Cycles())
		tr.Put(flight.Span{Track: track, Clock: flight.CycleClock, Name: "sector",
			StartUS: sectorStart, EndUS: end, Arg: trips})
		// Retry attribution for this sector: loop trips beyond the quota.
		tr.Put(flight.Span{Track: track, Clock: flight.CycleClock, Name: "rejection-retry",
			StartUS: end, EndUS: end, Arg: trips - limitMain})
	}
	if blk.written != len(blk.dst) {
		return fmt.Errorf("core: work-item %d wrote %d values, block expects %d", wid, blk.written, len(blk.dst))
	}
	stp.Cycles = gen.Cycles()
	stp.Accepted = gen.Accepted()
	if stp.Accepted > 0 {
		stp.RejectionRate = float64(stp.Cycles-stp.Accepted) / float64(stp.Accepted)
	}
	e.recordWICounters(wid, gen)
	return nil
}

// blockPhase is one work-item's block compute path: every trip of every
// sector runs through gamma.CycleBlock, and kept outputs land in dst,
// the work-item's rows of the device buffer, in order.
type blockPhase struct {
	gen        *gamma.Generator
	scratch    *gamma.BlockScratch
	dst        []float32
	written    int   // outputs written to dst so far
	overshoot  int64 // delayed-exit trips after the quota: BreakID+1
	perAttempt int64 // always-enabled MT0 words per attempt

	cFills, cWords, cBlocks, cDirect *telemetry.Counter
}

// sector runs one sector as quota-bounded blocks and returns what
// Listing 2's gated one-word MAINLOOP would: outputs, trips and the
// quota trip index (-1 if never reached). It is exact for three reasons:
//
//   - Each block runs min(blockCycles, limitMain−counter, limitMax−trips)
//     attempts. A block of k attempts yields at most k outputs, so the
//     counter never passes the quota and no accepted value is dropped.
//   - The counter reaches the quota only when every attempt of a block
//     accepts, so the quota trip is the block's last trip, as it is on
//     the gated path.
//   - The gated delayed exit reads the counter through BreakID+1
//     register stages, so it always fires exactly BreakID+1 trips after
//     the quota trip (limitMax permitting). Those trips run as discarded
//     blocks in the scratch — never into dst, whose next rows belong to
//     the next sector.
func (b *blockPhase) sector(limitMain, limitMax int64) (counter, trips, quotaAt int64) {
	for counter < limitMain && trips < limitMax {
		n := min(blockCycles, limitMain-counter, limitMax-trips)
		counter += b.block(n, true)
		trips += n
	}
	if counter < limitMain || limitMain == 0 {
		// Starved, or an empty quota whose exit fires before the first trip.
		return counter, trips, -1
	}
	quotaAt = trips - 1
	for over := min(b.overshoot, limitMax-trips); over > 0; {
		n := min(blockCycles, over)
		b.block(n, false)
		trips += n
		over -= n
	}
	return counter, trips, quotaAt
}

// block runs one CycleBlock of n attempts and returns the outputs it
// produced. Kept outputs go straight to dst: a kept block of n attempts
// only runs while at least n outputs remain in the sector's row, so it
// never crosses into the next row. The overshoot's are discarded.
func (b *blockPhase) block(n int64, keep bool) int64 {
	nvBefore := b.gen.NormalValid()
	var produced int
	if keep {
		produced = b.gen.CycleBlock(b.dst[b.written:b.written+int(n)], int(n), b.scratch)
		b.written += produced
		b.cBlocks.Add(1)
		b.cDirect.Add(int64(produced))
	} else {
		produced = b.gen.ConsumeBlock(int(n), b.scratch, func([]float32) {})
	}
	// One bulk increment per block: MT0 words (always enabled), the gated
	// MT1 words (one per valid normal) and the gated MT2 words (one per
	// accepted candidate).
	b.cWords.Add(n*b.perAttempt + int64(b.gen.NormalValid()-nvBefore) + int64(produced))
	b.cFills.Add(1)
	return int64(produced)
}

// recordWICounters adds the per-work-item cycle attribution the stall
// report ranks: total pipeline cycles, transform-level and
// Marsaglia-Tsang-level rejection, and the gated Mersenne-Twister feed
// stream hold counts (see gamma.Generator.NormalValid for the
// derivation). The generator is (re)seeded for this work-item, so its
// totals are this run's and a recorder shared by many runs sums them.
// No-op when telemetry is off.
func (e *Engine) recordWICounters(wid int, gen *gamma.Generator) {
	rec := e.cfg.Telemetry
	if rec == nil {
		return
	}
	cycles := int64(gen.Cycles())
	accepted := int64(gen.Accepted())
	nvalid := int64(gen.NormalValid())
	rec.Counter(fmt.Sprintf("engine.cycles[%d]", wid), "cycles",
		"total pipeline iterations").Add(cycles)
	rec.Counter(fmt.Sprintf("engine.accepted[%d]", wid), "cycles",
		"iterations producing a valid gamma value").Add(accepted)
	rec.Counter(fmt.Sprintf("rejection.normal-transform[%d]", wid), "cycles",
		"uniform-to-normal transform rejection (invalid candidates)").Add(cycles - nvalid)
	rec.Counter(fmt.Sprintf("rejection.gamma-loop[%d]", wid), "cycles",
		"gamma rejection loop (Marsaglia-Tsang MAINLOOP retries)").Add(nvalid - accepted)
	rec.Counter(fmt.Sprintf("mtfeed.mt1-hold[%d]", wid), "cycles",
		"Mersenne-Twister feed stream MT1 held (rejection uniform gated)").Add(cycles - nvalid)
	rec.Counter(fmt.Sprintf("mtfeed.mt2-hold[%d]", wid), "cycles",
		"Mersenne-Twister feed stream MT2 held (correction uniform gated)").Add(cycles - accepted)
}
