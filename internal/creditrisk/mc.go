package creditrisk

import (
	"fmt"
	"math"
	"sort"

	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/gamma"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/telemetry"
)

// sectorPipeAttempts is the candidate-block size of the sector-variable
// pipes: small enough that per-sector scratch stays cache-resident with
// hundreds of sectors live, large enough to amortize the bulk
// Mersenne-Twister fills.
const sectorPipeAttempts = 64

// MCConfig parameterizes a Monte-Carlo run.
type MCConfig struct {
	// Scenarios is the number of economy simulations (the paper runs
	// 2,621,440 per kernel invocation).
	Scenarios int
	// Transform and MTParams select which kernel configuration generates
	// the sector variables (Table I), making the RNG quality of every
	// configuration observable at application level.
	Transform normal.Kind
	MTParams  mt.Params
	// Seed drives all randomness.
	Seed uint64
	// Telemetry, when non-nil, receives live run metrics: a scenario
	// progress counter, per-sector rejection-trip histograms from the
	// gamma generators and a per-scenario default-count histogram. A nil
	// recorder leaves the simulation loop uninstrumented.
	Telemetry *telemetry.Recorder
}

// MCResult is the simulated loss distribution and its summaries.
type MCResult struct {
	// Losses holds one portfolio loss per scenario, unsorted.
	Losses []float64
	// MeanLoss and LossVar are sample moments.
	MeanLoss, LossVar float64
	// SectorMean is the sample mean of each sector factor (≈1, a
	// generator health check surfaced at application level).
	SectorMean []float64
}

// SimulateMC runs the CreditRisk+ Monte-Carlo: per scenario, draw all
// sector variables from the case-study gamma generator, form each
// obligor's mixed intensity, draw Poisson default counts and aggregate
// exposure-weighted losses.
func SimulateMC(p *Portfolio, cfg MCConfig) (*MCResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scenarios < 1 {
		return nil, fmt.Errorf("creditrisk: need at least one scenario, got %d", cfg.Scenarios)
	}
	if cfg.MTParams.N == 0 {
		cfg.MTParams = mt.MT19937Params
	}

	// One pipelined generator per sector (sectors are independent
	// streams, as on the device), plus one uniform stream for the
	// Poisson draws, read through the block-filled Poisson lane.
	seeds := rng.StreamSeeds(cfg.Seed, len(p.Sectors)+1)
	gens := make([]*gamma.Generator, len(p.Sectors))
	for k, s := range p.Sectors {
		gens[k] = gamma.NewGenerator(cfg.Transform, cfg.MTParams, gamma.MustFromVariance(s.Variance), seeds[k])
		gens[k].InstrumentTrips(cfg.Telemetry.Histogram(
			fmt.Sprintf("rng.gamma.trips[sector-%d]", k), "trips",
			"pipeline iterations per accepted gamma output (nested rejection-loop trip count)"))
	}
	lane := newPoissonLane(mt.New(cfg.MTParams, seeds[len(p.Sectors)]))
	cScenarios := cfg.Telemetry.Counter("creditrisk.scenarios", "events",
		"Monte-Carlo economy scenarios completed")
	hDefaults := cfg.Telemetry.Histogram("creditrisk.defaults", "events",
		"obligor defaults per scenario")

	// The gamma→loss pipe: each sector's generator feeds the loss
	// accumulation in candidate-block batches, never materializing a
	// per-sector scenario array. The pipe's refill discipline keeps the
	// drawn values, the generator counters and the trip histograms
	// bitwise-identical to gated per-draw consumption (gamma.Pipe,
	// TestPipeMatchesGatedNext).
	pipes := make([]*gamma.Pipe, len(gens))
	for k, g := range gens {
		pipes[k] = gamma.NewPipe(g, int64(cfg.Scenarios), sectorPipeAttempts,
			gamma.NewBlockScratch(sectorPipeAttempts))
	}

	res := &MCResult{
		Losses:     make([]float64, cfg.Scenarios),
		SectorMean: make([]float64, len(p.Sectors)),
	}
	sVals := make([]float64, len(p.Sectors))
	for s := 0; s < cfg.Scenarios; s++ {
		for k := range gens {
			sVals[k] = float64(pipes[k].Next())
			res.SectorMean[k] += sVals[k]
		}
		var loss float64
		var defaults int64
		for i := range p.Obligors {
			o := &p.Obligors[i]
			// A zero weight adds ±0, which leaves r unchanged because
			// sector values are finite.
			r := 0.0
			for k, w := range o.Weights {
				r += w * sVals[k]
			}
			if n := lane.draw(o.PD * r); n > 0 {
				loss += float64(n) * o.Exposure
				defaults += n
			}
		}
		res.Losses[s] = loss
		cScenarios.Add(1)
		hDefaults.Record(defaults)
	}
	for k := range res.SectorMean {
		res.SectorMean[k] /= float64(cfg.Scenarios)
	}

	var mean float64
	for _, l := range res.Losses {
		mean += l
	}
	mean /= float64(len(res.Losses))
	var v float64
	for _, l := range res.Losses {
		d := l - mean
		v += d * d
	}
	res.MeanLoss = mean
	res.LossVar = v / float64(len(res.Losses))
	return res, nil
}

// VaR returns the level-q value-at-risk (empirical quantile of the loss
// sample), e.g. q = 0.999 for the regulatory measure.
func (r *MCResult) VaR(q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("creditrisk: VaR level %g outside (0,1)", q)
	}
	s := append([]float64(nil), r.Losses...)
	sort.Float64s(s)
	// Smallest loss x with F̂(x) ≥ q: index ⌈q·n⌉−1.
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], nil
}

// ExpectedShortfall returns E[L | L ≥ VaR_q], the coherent tail measure.
func (r *MCResult) ExpectedShortfall(q float64) (float64, error) {
	v, err := r.VaR(q)
	if err != nil {
		return 0, err
	}
	var sum float64
	var n int
	for _, l := range r.Losses {
		if l >= v {
			sum += l
			n++
		}
	}
	if n == 0 {
		return v, nil
	}
	return sum / float64(n), nil
}
