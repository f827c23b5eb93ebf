package decwi

import (
	"fmt"
	"runtime"

	"github.com/decwi/decwi/internal/core"
	"github.com/decwi/decwi/internal/perf"
)

// This file is the single place the facade's option defaulting lives.
// GenerateParallel (and Generate through it) and Session.EnqueueGamma
// normalize through the same helpers, so the entry points cannot drift
// apart — the determinism contract (identical bytes from identical
// options) only holds if they agree on every clamp and default.

// normalizeGenerate validates opt against kernel k and fills the
// documented defaults: Variance 1.39 when neither variance field is
// set, Seed 1, WorkItems from the configuration's place-and-route
// outcome. Everything else (LimitMaxFactor, the twister) is defaulted
// by core.Config itself so the facade cannot disagree with the engine.
func normalizeGenerate(k perf.KernelConfig, opt GenerateOptions) (GenerateOptions, error) {
	if opt.Scenarios < 1 {
		return opt, fmt.Errorf("decwi: scenarios %d must be ≥ 1", opt.Scenarios)
	}
	if opt.Variance == 0 && opt.Variances == nil {
		opt.Variance = 1.39
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.WorkItems == 0 {
		opt.WorkItems = k.FPGAWorkItems
	}
	return opt, nil
}

// engineConfig maps normalized facade options onto the engine
// configuration. Every field the facade exposes is forwarded here and
// nowhere else.
func engineConfig(k perf.KernelConfig, opt GenerateOptions) core.Config {
	return core.Config{
		Transform:       k.Transform,
		MTParams:        k.MTParams,
		WorkItems:       opt.WorkItems,
		Scenarios:       opt.Scenarios,
		Sectors:         opt.Sectors,
		SectorVariance:  opt.Variance,
		SectorVariances: opt.Variances,
		Seed:            opt.Seed,
		StreamOffset:    opt.StreamOffset,
		BreakID:         opt.BreakID,
		Telemetry:       opt.Telemetry,
	}
}

// normalizeParallel applies normalizeGenerate and then resolves the
// scheduling knobs against the normalized work-item count:
// ChunkWorkItems defaults to the even split over GOMAXPROCS chunks (at
// most WorkItems of them) and is clamped to [1, WorkItems]; Workers
// defaults to GOMAXPROCS and is clamped to the resulting chunk count.
// It returns the normalized options and the chunk count.
//
// The scheduling knobs are pure execution policy: they decide how the
// work-item axis is partitioned and claimed, never what any work-item
// computes, so every return of this function yields bitwise-identical
// output for the same GenerateOptions.
func normalizeParallel(k perf.KernelConfig, opt ParallelOptions) (ParallelOptions, int, error) {
	if opt.Workers < 0 {
		return opt, 0, fmt.Errorf("decwi: workers %d must be ≥ 0 (0 selects GOMAXPROCS)", opt.Workers)
	}
	if opt.ChunkWorkItems < 0 {
		return opt, 0, fmt.Errorf("decwi: chunk size %d must be ≥ 0 (0 selects an even split)", opt.ChunkWorkItems)
	}
	g, err := normalizeGenerate(k, opt.GenerateOptions)
	if err != nil {
		return opt, 0, err
	}
	opt.GenerateOptions = g
	if opt.WorkItems < 1 {
		return opt, 0, fmt.Errorf("decwi: work-items %d must be ≥ 1", opt.WorkItems)
	}
	if opt.ChunkWorkItems == 0 {
		n := min(runtime.GOMAXPROCS(0), opt.WorkItems)
		opt.ChunkWorkItems = (opt.WorkItems + n - 1) / n
	}
	if opt.ChunkWorkItems > opt.WorkItems {
		opt.ChunkWorkItems = opt.WorkItems
	}
	chunks := (opt.WorkItems + opt.ChunkWorkItems - 1) / opt.ChunkWorkItems
	if opt.Workers == 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Workers > chunks {
		opt.Workers = chunks
	}
	return opt, chunks, nil
}
