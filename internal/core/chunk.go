package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/decwi/decwi/internal/rng/gamma"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

// This file is the chunk-level execution path of the engine: a run over
// a subset of work-items as a first-class operation. The paper's central
// claim — decoupled work-items never stall each other — means the
// work-item axis is dependency-free: work-item w's output depends only
// on its own split seed and quota, both fixed at NewEngine time. A
// chunked run therefore writes each work-item's values straight into the
// caller-provided device-layout buffer at the work-item's final offset
// (zero-copy assembly), on any goroutine, in any order, and the bytes
// are those of the gated scalar oracle (TestRunChunkEquivalence). Every
// facade entry point runs this path.

// RunChunk executes work-items [lo, hi) of the engine's layout, writing
// each one's output into dst at its final device-layout offset. dst must
// be the full result buffer (length Scenarios·Sectors); disjoint chunks
// touch disjoint ranges of it and may run concurrently on one engine.
//
// stats, when non-nil, must have one entry per work-item; entry w is
// overwritten for every executed work-item w. ctx, when non-nil, cancels
// the chunk at the next work-item or sector boundary.
func (e *Engine) RunChunk(ctx context.Context, dst []float32, lo, hi int, stats []WorkItemStats) error {
	cfg := e.cfg
	if lo < 0 || hi > cfg.WorkItems || lo >= hi {
		return fmt.Errorf("core: chunk [%d,%d) outside work-items [0,%d)", lo, hi, cfg.WorkItems)
	}
	if total := cfg.Scenarios * int64(cfg.Sectors); int64(len(dst)) != total {
		return fmt.Errorf("core: chunk destination holds %d values, layout needs %d", len(dst), total)
	}
	if stats != nil && len(stats) != cfg.WorkItems {
		return fmt.Errorf("core: stats slice has %d entries, engine has %d work-items", len(stats), cfg.WorkItems)
	}
	for wid := lo; wid < hi; wid++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: chunk [%d,%d) cancelled at work-item %d: %w", lo, hi, wid, err)
			}
		}
		if err := e.generateWI(ctx, wid, dst, stats); err != nil {
			return err
		}
	}
	return nil
}

// CombineStats computes the output-weighted combined rejection rate over
// a stats slice — the r that enters Eq. (1) — so chunked and monolithic
// runs agree on metadata too.
func CombineStats(stats []WorkItemStats) float64 {
	var cyc, acc uint64
	for _, s := range stats {
		cyc += s.Cycles
		acc += s.Accepted
	}
	if acc == 0 {
		return 0
	}
	return float64(cyc-acc) / float64(acc)
}

// Generators are pooled per (transform, twister-parameter) pair: the MT
// state arrays (4×624 words for MT19937) are the only allocation of a
// fused work-item run, and Reseed rebuilds them bitwise-identically to a
// fresh construction (TestReseedMatchesNew), so pooling is invisible to
// the output.
type genPoolKey struct {
	transform normal.Kind
	mtp       mt.Params
}

var genPools sync.Map // genPoolKey → *sync.Pool of *gamma.Generator

func genPool(key genPoolKey) *sync.Pool {
	if p, ok := genPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := genPools.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

// getGenerator returns a generator seeded for one work-item, reusing a
// pooled state when available.
func getGenerator(transform normal.Kind, mtp mt.Params, p gamma.Params, seed uint64) *gamma.Generator {
	if g, ok := genPool(genPoolKey{transform, mtp}).Get().(*gamma.Generator); ok && g != nil {
		g.SetParams(p)
		g.Reseed(seed)
		return g
	}
	return gamma.NewGenerator(transform, mtp, p, seed)
}

// putGenerator returns a generator to its pool.
func putGenerator(transform normal.Kind, mtp mt.Params, g *gamma.Generator) {
	genPool(genPoolKey{transform, mtp}).Put(g)
}
