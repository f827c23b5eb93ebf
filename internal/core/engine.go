package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/decwi/decwi/internal/hls"
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
	// BurstRNs is the burst length in values (Listing 4's SXTRANSF);
	// must be a multiple of WordRNs. Default 64.
	BurstRNs int
	// StreamDepth is the hls::stream FIFO depth between generation and
	// transfer in Run's dataflow. Default 64; negative depths are
	// rejected.
	StreamDepth int
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
	// hls::stream backpressure, per-work-item divergence and retry
	// attribution, and — into its run trace — dataflow process, sector
	// and burst spans. A nil recorder leaves the hot paths on their
	// uninstrumented fast path. Tracing never perturbs the generated
	// data (see TestTelemetryDoesNotPerturbRNG).
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
	if c.BurstRNs == 0 {
		c.BurstRNs = 64
	}
	if c.BurstRNs < WordRNs || c.BurstRNs%WordRNs != 0 {
		return c, fmt.Errorf("core: BurstRNs %d must be a positive multiple of %d", c.BurstRNs, WordRNs)
	}
	if c.StreamDepth < 0 {
		// hls.NewStream clamps sub-1 depths to 1; a negative depth is a
		// configuration error and must not be silently absorbed.
		return c, fmt.Errorf("core: StreamDepth must be ≥ 0 (0 selects the default), got %d", c.StreamDepth)
	}
	if c.StreamDepth == 0 {
		c.StreamDepth = 64
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
	// Stream-side stats of Run's dataflow; zero after RunChunk, which
	// has no stream.
	Bursts       int64 // memory bursts issued by the Transfer engine
	FlushedWords int64 // partial trailing words (0 on divisible setups)
	StreamHigh   int   // high-water occupancy of the hls::stream
}

// RunResult carries the generated data and the run telemetry.
type RunResult struct {
	// Data holds Scenarios·Sectors gamma values in device layout: one
	// contiguous block per work-item, sector-major inside the block
	// (Section III-E-2's single device buffer with per-wid offsets).
	Data []float32
	// BlockOffsets[w] is the index of work-item w's block in Data;
	// BlockOffsets[WorkItems] == len(Data).
	BlockOffsets []int64
	// PerWI is the per-work-item telemetry.
	PerWI []WorkItemStats
	cfg   Config
}

// Engine executes Config as a DATAFLOW region of decoupled work-items.
//
// The run layout — per-work-item quotas, device-layout block offsets and
// per-work-item master seeds — is fixed at construction time and depends
// only on the configuration, never on how a run is executed. This is
// what makes a chunked run (RunChunk over a subset of work-items, in any
// order, on any goroutine) bitwise-identical to Run's dataflow model.
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

// Config returns the normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

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

// Run executes the engine as Listing 1's DecoupledWorkItems: one
// gammaRNG process and one Transfer process per work-item, joined by a
// blocking hls::stream, all scheduled concurrently as a DATAFLOW region.
// It is the hardware model — stream backpressure, burst accounting and
// dataflow process spans are its observables — not the host's fast
// path, which is RunChunk. Both write the same bytes
// (TestFusedRunEquivalence).
func (e *Engine) Run() (*RunResult, error) {
	cfg := e.cfg
	per := e.per

	res := &RunResult{
		Data:         make([]float32, cfg.Scenarios*int64(cfg.Sectors)),
		BlockOffsets: append([]int64(nil), e.offsets...),
		PerWI:        make([]WorkItemStats, cfg.WorkItems),
		cfg:          cfg,
	}
	wiSeeds := e.seeds

	procs := make([]hls.Process, 0, 2*cfg.WorkItems)
	for w := 0; w < cfg.WorkItems; w++ {
		wid := w
		limitMain := per[wid]
		stream := hls.NewStream[float32](fmt.Sprintf("gamma[%d]", wid), cfg.StreamDepth)
		stream.Instrument(cfg.Telemetry)
		stats := &res.PerWI[wid]
		stats.WID = wid
		stats.Scenarios = limitMain

		gen := gamma.NewGenerator(cfg.Transform, cfg.MTParams,
			gamma.MustFromVariance(cfg.variance(0)), wiSeeds[wid])
		e.instrumentTrips(gen)
		e.seekStreams(gen)

		procs = append(procs,
			hls.Process{
				Name: fmt.Sprintf("GammaRNG[%d]", wid),
				Run:  func() error { return e.gammaRNG(wid, limitMain, gen, stream, stats) },
			},
			hls.Process{
				Name: fmt.Sprintf("Transfer[%d]", wid),
				Run:  func() error { return e.transfer(wid, limitMain, stream, res, stats) },
			},
		)
	}
	tr := cfg.Telemetry.Trace()
	kStart := tr.Now()
	if err := hls.DataflowWith(cfg.Telemetry, procs); err != nil {
		return nil, err
	}
	tr.Put(flight.Span{Track: "engine", Name: "kernel", StartUS: kStart, EndUS: tr.Now(),
		Arg: cfg.Scenarios * int64(cfg.Sectors)})
	for w := range res.PerWI {
		s := &res.PerWI[w]
		if s.Accepted > 0 {
			s.RejectionRate = float64(s.Cycles-s.Accepted) / float64(s.Accepted)
		}
	}
	return res, nil
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

// blockBuffers bundles one work-item's block-path scratch. The buffers
// are pooled because engine runs spin up fresh goroutines per work-item
// (lifetimes cross goroutines between runs); within one gammaRNG call
// the same buffers are reused with zero allocation.
type blockBuffers struct {
	scratch *gamma.BlockScratch
	out     []float32
}

var blockBuffersPool = sync.Pool{New: func() any {
	return &blockBuffers{
		scratch: gamma.NewBlockScratch(blockCycles),
		out:     make([]float32, blockCycles),
	}
}}

// gammaRNG is Listing 2: SECLOOP over sectors, each running the delayed-
// exit MAINLOOP until limitMain validated outputs are written to the
// stream. Validated outputs are staged in a WordRNs-sized batch and
// moved with one WriteBurst per 512-bit word; the value sequence on the
// stream is the one RunChunk writes in place (see generateWI).
func (e *Engine) gammaRNG(wid int, limitMain int64, gen *gamma.Generator, out *hls.Stream[float32], stats *WorkItemStats) error {
	defer out.Close()
	batch := make([]float32, 0, WordRNs)
	emit := func(vals []float32) {
		for _, v := range vals {
			batch = append(batch, v)
			if len(batch) == WordRNs {
				out.WriteBurst(batch)
				batch = batch[:0]
			}
		}
	}
	if err := e.generateWI(nil, wid, limitMain, gen, sink{commit: emit}, stats); err != nil {
		return err
	}
	// Flush the partial trailing batch (runs before the deferred Close,
	// so the consumer sees every emitted value before end-of-stream).
	if len(batch) > 0 {
		out.WriteBurst(batch)
	}
	return nil
}

// sink is generateWI's output hand-off. dest, when non-nil, returns a
// destination slice for up to n outputs so every block generates
// straight into final storage — RunChunk's fused pipe; when nil, blocks
// generate into the work-item's scratch row, which is what the streamed
// transport needs. commit receives each block's produced outputs, in
// order, wherever they were generated.
type sink struct {
	dest   func(n int) []float32
	commit func(out []float32)
}

// generateWI is the transport-agnostic body of gammaRNG: the SECLOOP
// over sectors with the delayed-exit MAINLOOP, handing each validated
// output to the sink, in order. The value sequence depends only on the
// work-item's generator (seed, transform, twister, variances) — never on
// where the sink puts the value — which is what makes the streamed Run
// path and the fused RunChunk path bitwise-identical. ctx, when
// non-nil, is polled at sector boundaries so a cancelled chunked run
// aborts promptly without perturbing any completed sector.
//
// Each sector runs on the block compute path (blockPhase.sector), which
// spends the same trips on the same Mersenne-Twister words and writes
// the same values as Listing 2's one-word gated MAINLOOP — the scalar
// oracle the equivalence tests keep (TestBlockComputeEquivalence).
func (e *Engine) generateWI(ctx context.Context, wid int, limitMain int64, gen *gamma.Generator, snk sink, stats *WorkItemStats) error {
	cfg := e.cfg
	limitMax := cfg.LimitMaxFactor*limitMain + 1024
	// Telemetry: a cycle-clock track timestamped by the generator's own
	// cycle counter. All handles are nil-safe no-ops when tracing is off,
	// and everything here is per-sector or per-block — the MAINLOOP body
	// itself carries no instrumentation.
	tr := cfg.Telemetry.Trace()
	var track string
	if tr != nil {
		track = fmt.Sprintf("GammaRNG[%d]", wid)
	}

	bufs := blockBuffersPool.Get().(*blockBuffers)
	defer blockBuffersPool.Put(bufs)
	blk := blockPhase{
		gen: gen, bufs: bufs, snk: snk,
		overshoot:  int64(cfg.BreakID) + 1,
		perAttempt: int64(cfg.Transform.UniformsPerCandidate()),
		cFills: cfg.Telemetry.Counter(fmt.Sprintf("rng.gamma[%d].block-fills", wid), "events",
			"bulk block-generation batches (CycleBlock calls)"),
		cWords: cfg.Telemetry.Counter(fmt.Sprintf("rng.gamma[%d].block-words", wid), "values",
			"Mersenne-Twister words consumed through bulk fills"),
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
		stats.Overshoot += trips - (quotaAt + 1)
		end := int64(gen.Cycles())
		tr.Put(flight.Span{Track: track, Clock: flight.CycleClock, Name: "sector",
			StartUS: sectorStart, EndUS: end, Arg: trips})
		// Retry attribution for this sector: loop trips beyond the quota.
		tr.Put(flight.Span{Track: track, Clock: flight.CycleClock, Name: "rejection-retry",
			StartUS: end, EndUS: end, Arg: trips - limitMain})
	}
	stats.Cycles = gen.Cycles()
	stats.Accepted = gen.Accepted()
	e.recordWICounters(wid, gen)
	return nil
}

// blockPhase is one work-item's block compute path: every trip of every
// sector runs through gamma.CycleBlock.
type blockPhase struct {
	gen            *gamma.Generator
	bufs           *blockBuffers
	snk            sink
	overshoot      int64 // delayed-exit trips after the quota: BreakID+1
	perAttempt     int64 // always-enabled MT0 words per attempt
	cFills, cWords *telemetry.Counter
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
//     blocks into the scratch row — never into the sink, which at a
//     work-item's last sector would be the next work-item's rows.
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
// produced. Kept outputs go to the sink; the overshoot's are discarded.
func (b *blockPhase) block(n int64, keep bool) int64 {
	nvBefore := b.gen.NormalValid()
	out := b.bufs.out[:n]
	if keep && b.snk.dest != nil {
		out = b.snk.dest(int(n))
	}
	produced := b.gen.CycleBlock(out, int(n), b.bufs.scratch)
	if keep {
		b.snk.commit(out[:produced])
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

// transfer is Listing 4: read the stream, pack into 512-bit words, fill
// the burst buffer, and copy each completed burst into the single device
// buffer at this work-item's running offset. Each ReadBurst dequeues one
// whole 512-bit word; a trailing partial word is written with its exact
// length, so no padding lands in the result buffer.
func (e *Engine) transfer(wid int, limitMain int64, in *hls.Stream[float32], res *RunResult, stats *WorkItemStats) error {
	cfg := e.cfg
	burstWords := cfg.BurstRNs / WordRNs
	burst := make([]Word512, 0, burstWords)
	tr := cfg.Telemetry.Trace()
	var track string
	if tr != nil {
		track = fmt.Sprintf("Transfer[%d]", wid)
	}
	cBursts := cfg.Telemetry.Counter(fmt.Sprintf("membus.bursts[%d]", wid), "events",
		"memory bursts issued by the Transfer engine")

	offset := res.BlockOffsets[wid] // running value offset (blockOffset·wid)
	emit := func(w Word512, n int) {
		copy(res.Data[offset:offset+int64(n)], w[:n])
		offset += int64(n)
	}
	flushBurst := func() {
		if len(burst) == 0 {
			return
		}
		// One memcpy burst: LTRANSF consecutive beats at the offset.
		payload := int64(len(burst) * WordRNs)
		for _, w := range burst {
			emit(w, WordRNs)
		}
		burst = burst[:0]
		stats.Bursts++
		cBursts.Add(1)
		now := tr.Now()
		tr.Put(flight.Span{Track: track, Name: "mem-burst", StartUS: now, EndUS: now, Arg: payload})
	}

	total := limitMain * int64(cfg.Sectors)
	var w Word512
	words := total / int64(WordRNs)
	for i := int64(0); i < words; i++ {
		n, err := in.ReadBurst(w[:])
		if err != nil || n < WordRNs {
			return fmt.Errorf("core: transfer %d: stream ended after %d of %d values: %w",
				wid, i*int64(WordRNs)+int64(n), total, errTruncated(err))
		}
		burst = append(burst, w)
		if len(burst) == burstWords {
			flushBurst()
		}
	}
	flushBurst()
	if rem := int(total % int64(WordRNs)); rem > 0 {
		n, err := in.ReadBurst(w[:rem])
		if err != nil || n < rem {
			return fmt.Errorf("core: transfer %d: stream ended after %d of %d values: %w",
				wid, words*int64(WordRNs)+int64(n), total, errTruncated(err))
		}
		emit(w, rem)
		stats.FlushedWords++
		stats.Bursts++
	}
	if offset != res.BlockOffsets[wid+1] {
		return fmt.Errorf("core: transfer %d: wrote %d values, block expects %d",
			wid, offset-res.BlockOffsets[wid], res.BlockOffsets[wid+1]-res.BlockOffsets[wid])
	}
	_, _, stats.StreamHigh = streamStats(in)
	return nil
}

// streamStats adapts the Stream telemetry accessor.
func streamStats(s *hls.Stream[float32]) (uint64, uint64, int) { return s.Stats() }

// errTruncated normalises the short-read cases of ReadBurst: a short
// count with a nil error still means the producer closed early.
func errTruncated(err error) error {
	if err != nil {
		return err
	}
	return hls.ErrStreamClosed
}

// MaxWorkItemCycles returns the largest per-work-item cycle count — the
// quantity that determines the kernel's compute time, since decoupled
// work-items run independently and the slowest one finishes last.
func (r *RunResult) MaxWorkItemCycles() uint64 {
	var m uint64
	for _, s := range r.PerWI {
		if s.Cycles > m {
			m = s.Cycles
		}
	}
	return m
}
