package decwi

import (
	"fmt"
	"math"
	"time"

	"github.com/decwi/decwi/internal/fpga"
	"github.com/decwi/decwi/internal/perf"
	"github.com/decwi/decwi/internal/rng/gamma"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/stats"
	"github.com/decwi/decwi/internal/telemetry"
)

// ConfigID selects one of the paper's four application configurations
// (Table I).
type ConfigID int

const (
	// Config1: Marsaglia-Bray transform, MT19937 (624 states).
	Config1 ConfigID = iota + 1
	// Config2: Marsaglia-Bray transform, MT521 (17 states).
	Config2
	// Config3: ICDF transform, MT19937.
	Config3
	// Config4: ICDF transform, MT521.
	Config4
	// ExtensionZiggurat is not a Table I configuration: it swaps the
	// uniform-to-normal stage for the Marsaglia-Tsang ziggurat — the kind
	// of rejection algorithm the paper's conclusion names as the natural
	// extension target of the decoupled design. Everything else (gated
	// twisters, delayed-exit MAINLOOP, burst transfers) is reused
	// unchanged, which is the point.
	ExtensionZiggurat
)

// String returns the paper's configuration name.
func (c ConfigID) String() string {
	switch {
	case c >= Config1 && c <= Config4:
		return fmt.Sprintf("Config%d", int(c))
	case c == ExtensionZiggurat:
		return "ConfigZ(ext)"
	default:
		return fmt.Sprintf("Config?(%d)", int(c))
	}
}

// kernel returns the internal configuration record.
func (c ConfigID) kernel() (perf.KernelConfig, error) {
	switch c {
	case Config1:
		return perf.Config1, nil
	case Config2:
		return perf.Config2, nil
	case Config3:
		return perf.Config3, nil
	case Config4:
		return perf.Config4, nil
	case ExtensionZiggurat:
		return perf.KernelConfig{
			Name: "ConfigZ(ext)", Transform: normal.Ziggurat,
			MTParams: mt.MT521Params, FPGAWorkItems: 9,
		}, nil
	default:
		return perf.KernelConfig{}, fmt.Errorf("decwi: unknown configuration %d", int(c))
	}
}

// ConfigInfo describes a configuration as Table I does.
type ConfigInfo struct {
	Name       string
	Transform  string // uniform-to-normal transformation
	MTExponent int    // Mersenne prime exponent (period 2^(p−1) in the paper's notation)
	MTStates   int    // state words
	// FPGAWorkItems is the place-and-route outcome (Section IV-B).
	FPGAWorkItems int
	// Rejecting reports whether the transform itself rejects
	// (Marsaglia-Bray) or only the Marsaglia-Tsang stage does (ICDF).
	Rejecting bool
}

// Describe returns the Table I row for the configuration.
func (c ConfigID) Describe() (ConfigInfo, error) {
	k, err := c.kernel()
	if err != nil {
		return ConfigInfo{}, err
	}
	exp := 521
	if k.BigMT() {
		exp = 19937
	}
	return ConfigInfo{
		Name:          k.Name,
		Transform:     k.Transform.String(),
		MTExponent:    exp,
		MTStates:      k.MTParams.N,
		FPGAWorkItems: k.FPGAWorkItems,
		Rejecting:     k.Transform.Rejecting(),
	}, nil
}

// AllConfigs lists the four configurations.
var AllConfigs = []ConfigID{Config1, Config2, Config3, Config4}

// GenerateOptions parameterizes a run of the decoupled work-item engine.
// The zero value of every optional field selects the documented default.
type GenerateOptions struct {
	// Scenarios is the number of gamma values per sector (paper setup:
	// 2,621,440). Required.
	Scenarios int64
	// Sectors is the number of financial sectors (paper setup: 240).
	// Required.
	Sectors int
	// Variance is the sector variance v (default 1.39, the paper's
	// representative value); Variances overrides it per sector.
	Variance  float64
	Variances []float64
	// WorkItems overrides the number of decoupled pipelines; 0 selects
	// the configuration's place-and-route outcome (6 or 8).
	WorkItems int
	// Seed drives all randomness (default 1).
	Seed uint64
	// StreamOffset fast-forwards every work-item's Mersenne-Twister
	// streams by this many state words before generation — an O(log n)
	// seek through each stream. 0 (the default) starts at the seed state,
	// keeping all pre-existing replay tuples byte-identical; a nonzero
	// offset deterministically selects a later window of the same
	// per-seed streams (checkpoint/resume, partitioning one seed across
	// processes). The (Seed, StreamOffset) pair fully determines the
	// stream positions.
	StreamOffset uint64
	// BreakID is Listing 2's counter delay index for the delayed exit
	// ("here it suffices to use zero"). The exit reads the output counter
	// through BreakID+1 register stages, so every work-item runs
	// BreakID+1 MAINLOOP trips past its quota in each sector before the
	// exit fires; values those trips accept are discarded, not stored,
	// so the output layout is unchanged but the twister streams advance.
	BreakID int
	// Telemetry, when non-nil, records engine instrumentation for the
	// run (per-work-item divergence, retry and scheduler attribution).
	// Tracing never perturbs the generated data.
	Telemetry *telemetry.Recorder
}

// GenerateResult carries the generated data and its run metadata.
type GenerateResult struct {
	// Values holds Scenarios·Sectors gamma variates in device layout
	// (one block per work-item; use Sector for the per-sector marginal).
	Values []float32
	// RejectionRate is the observed combined rate (Eq. (1)'s r).
	RejectionRate float64
	// WorkItems is the number of decoupled pipelines used.
	WorkItems int
	// FPGATime is the modelled kernel runtime on the paper's board for
	// this workload.
	FPGATime time.Duration
	// TransferBound reports whether the memory path dominated.
	TransferBound bool

	par *ParallelResult
}

// Sector returns every value of one sector across work-items.
func (r *GenerateResult) Sector(k int) []float32 { return r.par.Sector(k) }

// Generate runs configuration c of the decoupled work-item engine and
// returns validated gamma data plus modelled FPGA timing. This is the
// quickstart entry point: GenerateParallel's scheduler with one worker
// over one chunk (an oversized chunk size clamps to all work-items), so
// its bytes are GenerateParallel's for the same options.
func Generate(c ConfigID, opt GenerateOptions) (*GenerateResult, error) {
	par, err := GenerateParallel(c, ParallelOptions{GenerateOptions: opt, Workers: 1, ChunkWorkItems: math.MaxInt})
	if err != nil {
		return nil, err
	}
	res := &GenerateResult{
		Values:        par.Values,
		RejectionRate: par.RejectionRate,
		WorkItems:     par.WorkItems,
		par:           par,
	}
	w := fpga.Workload{NumScenarios: opt.Scenarios, NumSectors: int64(opt.Sectors), BytesPerValue: 4}
	t, err := fpga.DefaultDevice().KernelRuntime(w, par.WorkItems, res.RejectionRate, perf.FPGABurstRNs)
	if err != nil {
		return nil, err
	}
	res.FPGATime = t.Runtime
	res.TransferBound = !t.ComputeBound
	return res, nil
}

// ValidateGamma runs the Fig. 6 validation on a sample: a KS test against
// the analytic Gamma(1/v, v) CDF. It returns the KS statistic and
// p-value.
func ValidateGamma(sample []float32, variance float64) (d, pvalue float64, err error) {
	if len(sample) == 0 {
		return 0, 0, fmt.Errorf("decwi: empty sample")
	}
	g, err := stats.NewGammaDist(1/variance, variance)
	if err != nil {
		return 0, 0, err
	}
	ks := stats.KSTestOneSample(stats.Float32To64(sample), g.CDF)
	return ks.D, ks.PValue, nil
}

// ReferenceSample draws n Gamma(1/v, v) variates from the algorithm-
// independent oracle sampler (the stand-in for the paper's Matlab gamrnd
// benchmark in Fig. 6).
func ReferenceSample(n int, variance float64, seed uint64) ([]float32, error) {
	if n < 1 {
		return nil, fmt.Errorf("decwi: sample size %d must be ≥ 1", n)
	}
	p, err := gamma.FromVariance(variance)
	if err != nil {
		return nil, err
	}
	ref := gamma.NewReferenceSampler(p, mt.NewMT19937(seed))
	return ref.Fill(nil, n), nil
}

// MeasureRejection returns the combined rejection rate of a
// configuration at sector variance v (Section IV-E's quantity).
func MeasureRejection(c ConfigID, variance float64, outputs int, seed uint64) (float64, error) {
	k, err := c.kernel()
	if err != nil {
		return 0, err
	}
	if outputs < 1 {
		return 0, fmt.Errorf("decwi: outputs %d must be ≥ 1", outputs)
	}
	if !(variance > 0) {
		return 0, fmt.Errorf("decwi: variance %g must be positive", variance)
	}
	return gamma.MeasureRejectionRate(k.Transform, k.MTParams, variance, outputs, seed), nil
}

// transformOf exposes the transform kind for facade helpers.
func transformOf(c ConfigID) (normal.Kind, error) {
	k, err := c.kernel()
	if err != nil {
		return 0, err
	}
	return k.Transform, nil
}
