package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"slices"
	"time"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/core"
	"github.com/decwi/decwi/internal/perf"
	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/gamma"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/serve"
	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/flight"
)

// The ledger pass times each layer's public calls directly, at the
// workload's own configuration and shape, from the Mersenne-Twister fill
// up to the serve scheduler. Nothing inside the program is instrumented.

// blockAttempts is the engine's attempts per CycleBlock call.
const blockAttempts = 256

// ledgerSink keeps the compiler from discarding pure calls under timing.
var ledgerSink float32

type ledger struct {
	values float64 // per call of the shape

	mtNsPerWord, normalNs, validRatio, candidateNs, finishNs float64
	cycleNs, tripsPerAccept                                  float64

	newEngineNs, runChunkNs, tripsPerCall float64
	gpW1Ns, gpW2Ns                        float64
	imbalance, steals, allocPerValue      float64

	riskUsPerScenario float64

	validateUs, hitUs, coldMs float64
}

// ledgerBudget is how long each layer is timed: a fortieth of the
// measured window, within [20ms, 500ms].
func ledgerBudget(cfg runConfig) time.Duration {
	return min(max(cfg.Window/40, 20*time.Millisecond), 500*time.Millisecond)
}

// timedCall is one layer's call, timed by timeRounds.
type timedCall struct {
	name  string
	f     func()
	batch int       // calls per timing, so that one timing spans ≥200µs
	per   []float64 // ns per call, one entry per round
}

// best is the fastest round's ns per call. Other tenants of a shared host
// only ever add time, so the fastest round is the layer's cost least
// disturbed by them; the ledger reports it for every layer cost.
func (c *timedCall) best() float64 { return slices.Min(c.per) }

// p50 is the median round's ns per call.
func (c *timedCall) p50() float64 { return median(c.per) }

// timeRounds times the calls in alternating rounds, one batch of each per
// round, for budget per call and at least ten rounds. Drift on a shared
// box then hits every call alike and cancels from their differences,
// which is what the ledger's residuals are.
func timeRounds(budget time.Duration, spans *spanLog, calls ...*timedCall) {
	batch := func(c *timedCall) time.Duration {
		t := time.Now()
		for i := 0; i < c.batch; i++ {
			c.f()
		}
		d := time.Since(t)
		spans.add("ledger/"+c.name, 0, t, d, 0)
		return d
	}
	for _, c := range calls {
		for c.batch = 1; batch(c) < 200*time.Microsecond && c.batch < 1<<20; c.batch *= 2 {
		}
	}
	for end := time.Now().Add(budget * time.Duration(len(calls))); len(calls[0].per) < 10 || time.Now().Before(end); {
		for _, c := range calls {
			c.per = append(c.per, float64(batch(c))/float64(c.batch))
		}
	}
}

func kernelOf(c decwi.ConfigID) perf.KernelConfig {
	switch c {
	case decwi.Config1:
		return perf.Config1
	case decwi.Config2:
		return perf.Config2
	case decwi.Config3:
		return perf.Config3
	default:
		return perf.Config4
	}
}

// sectorParams are the gamma parameters of each sector of the shape.
func sectorParams(s genShape) []gamma.Params {
	ps := make([]gamma.Params, s.Sectors)
	for i := range ps {
		v := s.Variance
		if s.Variances != nil {
			v = s.Variances[i]
		}
		ps[i] = gamma.MustFromVariance(v)
	}
	return ps
}

// partBlock is one CycleBlock's worth of inputs and outputs, staged so
// that each stage can be timed on its own.
type partBlock struct {
	w1, w2   []uint32
	normals  []float32
	nok      []bool
	u1, u2   []uint32
	dv       []float64
	acc      []bool
	accepted int
	p        gamma.Params
}

func runLedger(shape genShape, cfg runConfig, spans *spanLog) (*ledger, error) {
	budget := ledgerBudget(cfg)
	k := kernelOf(shape.Config)
	params := sectorParams(shape)
	lg := &ledger{values: float64(shape.values())}
	seed := cfg.Seed

	// Stage the inputs of a few blocks, spread over the shape's sectors.
	const nb = 16
	src := mt.New(k.MTParams, seed)
	words := func(n int) []uint32 {
		w := make([]uint32, n)
		src.FillUint32(w)
		return w
	}
	blocks := make([]partBlock, nb)
	var valid, accepted int
	for b := range blocks {
		blk := &blocks[b]
		blk.w1 = words(blockAttempts)
		blk.w2 = words((k.Transform.UniformsPerCandidate() - 1) * blockAttempts)
		blk.normals = make([]float32, blockAttempts)
		blk.nok = make([]bool, blockAttempts)
		nv := normal.FillNormal(k.Transform, blk.normals, blk.nok, blk.w1, blk.w2)
		blk.u1 = words(nv)
		blk.dv = make([]float64, blockAttempts)
		blk.acc = make([]bool, blockAttempts)
		blk.p = params[b*len(params)/nb]
		blk.accepted = blk.p.CandidateBlock(blk.dv, blk.acc, blk.normals, blk.nok, blk.u1)
		blk.u2 = words(blk.accepted)
		valid += nv
		accepted += blk.accepted
	}
	lg.validRatio = float64(valid) / (nb * blockAttempts)

	buf := make([]uint32, blockAttempts)
	core0 := mt.New(k.MTParams, seed)
	i := 0
	next := func() *partBlock { i++; return &blocks[i%nb] }
	g := gamma.NewGenerator(k.Transform, k.MTParams, params[0], seed)
	scratch := gamma.NewBlockScratch(blockAttempts)
	out := make([]float32, blockAttempts)
	fill := &timedCall{name: "mt.FillUint32", f: func() { core0.FillUint32(buf) }}
	norm := &timedCall{name: "normal.FillNormal", f: func() {
		blk := next()
		normal.FillNormal(k.Transform, blk.normals, blk.nok, blk.w1, blk.w2)
	}}
	cand := &timedCall{name: "gamma.CandidateBlock", f: func() {
		blk := next()
		blk.p.CandidateBlock(blk.dv, blk.acc, blk.normals, blk.nok, blk.u1)
	}}
	// Finish walks the acceptance flags as CycleBlock does.
	finish := &timedCall{name: "gamma.Finish", f: func() {
		blk := next()
		j := 0
		for a, ok := range blk.acc {
			if ok {
				ledgerSink += blk.p.Finish(blk.dv[a], rng.U32ToFloatOpen(blk.u2[j]))
				j++
			}
		}
	}}
	cycle := &timedCall{name: "gamma.CycleBlock", f: func() {
		g.SetParams(next().p)
		g.CycleBlock(out, blockAttempts, scratch)
	}}
	timeRounds(budget, spans, fill, norm, cand, finish, cycle)
	lg.mtNsPerWord = fill.best() / blockAttempts
	lg.normalNs = norm.best() / blockAttempts
	lg.candidateNs = cand.best() / blockAttempts
	lg.finishNs = finish.best() / (float64(accepted) / nb)
	lg.cycleNs = cycle.best() / blockAttempts
	lg.tripsPerAccept = float64(g.Cycles()) / float64(g.Accepted())

	ccfg := core.Config{
		Transform: k.Transform, MTParams: k.MTParams, WorkItems: k.FPGAWorkItems,
		Scenarios: shape.Scenarios, Sectors: shape.Sectors,
		SectorVariance: shape.Variance, SectorVariances: shape.Variances, Seed: seed,
	}
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	eng, err := core.NewEngine(ccfg)
	if err != nil {
		return nil, err
	}
	dst := make([]float32, shape.values())
	stats := make([]core.WorkItemStats, k.FPGAWorkItems)
	ctx := context.Background()
	opt1 := shape.options(seed)
	opt2 := opt1
	opt2.Workers = 2
	var w2Calls int
	newEngine := &timedCall{name: "core.NewEngine", f: func() {
		_, err := core.NewEngine(ccfg)
		check(err)
	}}
	runChunk := &timedCall{name: "core.RunChunk", f: func() {
		check(eng.RunChunk(ctx, dst, 0, k.FPGAWorkItems, stats))
	}}
	gpW1 := &timedCall{name: "facade.GenerateParallel/w1", f: func() {
		_, err := decwi.GenerateParallel(shape.Config, opt1)
		check(err)
	}}
	gpW2 := &timedCall{name: "facade.GenerateParallel/w2", f: func() {
		res, err := decwi.GenerateParallel(shape.Config, opt2)
		check(err)
		if err == nil {
			lg.imbalance += res.ChunkImbalance
			lg.steals += float64(res.Steals)
			w2Calls++
		}
	}}
	timeRounds(budget, spans, newEngine, runChunk, gpW1, gpW2)
	lg.newEngineNs, lg.runChunkNs = newEngine.best(), runChunk.best()
	lg.gpW1Ns, lg.gpW2Ns = gpW1.best(), gpW2.best()
	lg.imbalance /= float64(w2Calls)
	lg.steals /= float64(w2Calls)
	for _, s := range stats {
		lg.tripsPerCall += float64(s.Cycles)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const allocCalls = 3
	for c := 0; c < allocCalls; c++ {
		_, err := decwi.GenerateParallel(shape.Config, opt1)
		check(err)
	}
	runtime.ReadMemStats(&ms1)
	lg.allocPerValue = float64(ms1.TotalAlloc-ms0.TotalAlloc) / allocCalls / lg.values

	p, err := decwi.NewUniformPortfolio(4, 1.39, 100, 0.02, 100)
	if err != nil {
		return nil, err
	}
	const riskScenarios = 5000
	risk := &timedCall{name: "creditrisk.PortfolioRisk", f: func() {
		_, err := decwi.PortfolioRisk(p, shape.Config, riskScenarios, 0, seed)
		check(err)
	}}
	timeRounds(budget, spans, risk)
	lg.riskUsPerScenario = risk.best() / 1e3 / riskScenarios

	if err := lg.inprocServe(shape, seed, budget, spans); err != nil {
		return nil, err
	}
	return lg, firstErr
}

// inprocConfig sets a scheduler up as decwi-served does with its default
// flags: metrics recorder, flight recorder, JSON logs at info level and
// the fast path for small jobs. Every other field keeps its default.
func inprocConfig() serve.Config {
	return serve.Config{
		FastPathValues: 65536,
		Telemetry:      telemetry.New(0),
		Flight:         flight.New(256, 64, 250*time.Millisecond),
		Logger:         slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
}

// inprocServe times JobSpec.Validate and Submit until Done, cold (a new
// tuple each time) and as a cache hit (one tuple again and again).
func (lg *ledger) inprocServe(shape genShape, seed uint64, budget time.Duration, spans *spanLog) error {
	sched := serve.New(inprocConfig())
	defer sched.Drain(context.Background())

	var firstErr error
	submit := func(s serve.JobSpec) {
		job, err := sched.Submit(s)
		if err == nil {
			<-job.Done()
			if st := job.Status(); st.State != serve.StateDone {
				err = fmt.Errorf("in-process job %s: %s %s", job.ID, st.State, st.Error)
			}
			sched.Remove(job.ID)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	spec := shape.spec(seed, "")
	validate := &timedCall{name: "serve.Validate", f: func() {
		s := spec
		_ = s.Validate(serve.Limits{}) // the spec is valid; Submit checks it again
	}}
	// The first cold tuple is the one the hit calls repeat.
	n := 0
	cold := &timedCall{name: "serve.Submit/cold", f: func() {
		submit(shape.spec(jobSeed(seed, 1<<22+n), ""))
		n++
	}}
	hit := &timedCall{name: "serve.Submit/hit", f: func() { submit(shape.spec(jobSeed(seed, 1<<22), "")) }}
	timeRounds(budget, spans, validate, cold, hit)
	lg.validateUs = validate.best() / 1e3
	lg.coldMs = cold.p50() / 1e6
	lg.hitUs = hit.p50() / 1e3
	return firstErr
}

// Per-value shares of the ledger's GenerateParallel call at one worker.
// They add up to it exactly: blocks run at CycleBlock speed, core adds
// the rest of RunChunk, and the facade adds set-up and scheduling.
func (lg *ledger) blockNsPerValue() float64 { return lg.tripsPerCall * lg.cycleNs / lg.values }
func (lg *ledger) nonblockNsPerValue() float64 {
	return (lg.runChunkNs - lg.tripsPerCall*lg.cycleNs) / lg.values
}
func (lg *ledger) schedNs() float64 { return lg.gpW1Ns - lg.newEngineNs - lg.runChunkNs }
func (lg *ledger) sumNsPerValue() float64 {
	return lg.blockNsPerValue() + lg.nonblockNsPerValue() + (lg.newEngineNs+lg.schedNs())/lg.values
}

// partsNsPerAttempt is CycleBlock's cost rebuilt from its timed parts:
// the twister words it consumes (the transform's words per attempt, one
// per valid normal, one per accepted value), the normal transform, the
// Marsaglia-Tsang test and the finish of each accepted value.
func (lg *ledger) partsNsPerAttempt(k perf.KernelConfig) float64 {
	acceptPerAttempt := 1 / lg.tripsPerAccept
	words := float64(k.Transform.UniformsPerCandidate()) + lg.validRatio + acceptPerAttempt
	return words*lg.mtNsPerWord + lg.normalNs + lg.candidateNs + lg.finishNs*acceptPerAttempt
}

func (lg *ledger) report(r *result, shape genShape) {
	r.layer("mt.fill_ns_per_word", lg.mtNsPerWord)
	r.layer("normal.fill_ns_per_candidate", lg.normalNs)
	r.layer("normal.valid_ratio", lg.validRatio)
	r.layer("gamma.candidate_ns_per_candidate", lg.candidateNs)
	r.layer("gamma.finish_ns_per_value", lg.finishNs)
	r.layer("gamma.cycleblock_ns_per_attempt", lg.cycleNs)
	r.layer("gamma.trips_per_accept", lg.tripsPerAccept)
	r.layer("gamma.block_residual_pct", 100*(lg.cycleNs-lg.partsNsPerAttempt(kernelOf(shape.Config)))/lg.cycleNs)
	r.layer("core.newengine_us", lg.newEngineNs/1e3)
	r.layer("core.runchunk_ns_per_value", lg.runChunkNs/lg.values)
	r.layer("core.nonblock_ns_per_value", lg.nonblockNsPerValue())
	r.layer("parallel.sched_overhead_pct", 100*lg.schedNs()/lg.gpW1Ns)
	r.layer("parallel.efficiency_w2", lg.gpW1Ns/(2*lg.gpW2Ns))
	r.layer("parallel.chunk_imbalance", lg.imbalance)
	r.layer("parallel.steals_per_call", lg.steals)
	r.layer("facade.alloc_bytes_per_value", lg.allocPerValue)
	r.layer("creditrisk.us_per_scenario", lg.riskUsPerScenario)
	r.layer("serve.validate_us", lg.validateUs)
	r.layer("serve.inproc_hit_us_p50", lg.hitUs)
	r.layer("serve.inproc_cold_ms_p50", lg.coldMs)
}
