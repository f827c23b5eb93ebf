package core

// substream.go — stream seek and intra-work-item substream execution.
//
// The paper's parallel axis is the work-item: each decoupled pipeline
// owns an independent Mersenne-Twister stream, so a run shards cleanly
// along work-items (chunk.go) but a single skewed work-item — one whose
// rejection loop drew an unlucky streak — caps the whole run. Jump-ahead
// removes that limit: because the twister transition is F2-linear, one
// work-item's stream can be carved into widely spaced substream lanes in
// O(log n) (rng.SubstreamStride apart), each lane decorrelated by a
// ThundeRiNG-style output scrambler, and a (wid, part) unit becomes the
// schedulable grain instead of the whole work-item.
//
// Substream execution is additive, never a stream change: the default
// configuration (no parts, no offset) produces byte-identical output to
// every prior release, while parts > 1 selects a different — but fully
// deterministic, scheduling-independent — stream family.

import (
	"context"
	"fmt"

	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/gamma"
)

// seekStreams positions a freshly (re)seeded generator at the
// configured stream offset plus an execution-path extra (the substream
// stride of a part) with the O(log n) jump. The word-by-word walk
// (AdvanceStreams) stays as the test oracle it is checked against.
func (e *Engine) seekStreams(gen *gamma.Generator, extra uint64) {
	if off := e.cfg.StreamOffset + extra; off != 0 {
		gen.JumpStreams(off)
	}
}

// PartQuota returns the output quota and starting scenario index of
// substream part (of parts) within work-item wid: the work-item's
// limitMain split as evenly as possible, earlier parts absorbing the
// remainder — mirroring how scenarios split across work-items.
func (e *Engine) PartQuota(wid, part, parts int) (quota, partLo int64) {
	limitMain := e.per[wid]
	base := limitMain / int64(parts)
	rem := limitMain % int64(parts)
	quota = base
	if int64(part) < rem {
		quota++
	}
	partLo = int64(part) * base
	if int64(part) < rem {
		partLo += int64(part)
	} else {
		partLo += rem
	}
	return quota, partLo
}

// RunItemPart executes substream part (of parts) of work-item wid,
// writing its outputs into dst at their final device-layout positions:
// sector k's values land at offsets[wid] + k·limitMain + [partLo,
// partLo+quota). Disjoint (wid, part) units touch disjoint ranges of dst
// and may run concurrently, in any order, on any goroutine — each unit
// re-derives its generator state from (seed[wid], part) alone, so the
// output is scheduling-independent.
//
// Each part runs on work-item wid's own seed, jumped to part·
// SubstreamStride words and (for parts > 1) decorrelated with a key
// derived from (seed[wid], part); part counts therefore select distinct
// deterministic stream families, with parts == 1 byte-identical to the
// fused work-item path. The part body is Listing 2's MAINLOOP on the
// block compute path without the delayed exit: a lane stops on its
// quota trip (substream scheduling is rejected for BreakID > 0 at the
// options layer: overshoot semantics are defined per work-item, not per
// lane).
func (e *Engine) RunItemPart(ctx context.Context, dst []float32, wid, part, parts int, stats *WorkItemStats) error {
	cfg := e.cfg
	if wid < 0 || wid >= cfg.WorkItems {
		return fmt.Errorf("core: part of work-item %d outside [0,%d)", wid, cfg.WorkItems)
	}
	if parts < 1 || part < 0 || part >= parts {
		return fmt.Errorf("core: substream part %d/%d invalid", part, parts)
	}
	if total := cfg.Scenarios * int64(cfg.Sectors); int64(len(dst)) != total {
		return fmt.Errorf("core: part destination holds %d values, layout needs %d", len(dst), total)
	}
	quota, partLo := e.PartQuota(wid, part, parts)
	var st WorkItemStats
	if stats == nil {
		stats = &st
	}
	*stats = WorkItemStats{WID: wid, Scenarios: quota}
	if quota == 0 {
		return nil
	}
	if parts == 1 {
		// Degenerate split: exactly the fused work-item path.
		tmp := make([]WorkItemStats, cfg.WorkItems)
		if err := e.runWorkItemFused(ctx, wid, dst, tmp); err != nil {
			return err
		}
		*stats = tmp[wid]
		return nil
	}

	gen := getGenerator(cfg.Transform, cfg.MTParams,
		gamma.MustFromVariance(cfg.variance(0)), e.seeds[wid])
	e.instrumentTrips(gen)
	defer putGenerator(cfg.Transform, cfg.MTParams, gen)
	e.seekStreams(gen, rng.SubstreamSeek(part))
	gen.DecorrelateStreams(rng.SubstreamKey(e.seeds[wid], part))

	limitMain := e.per[wid]
	limitMax := cfg.LimitMaxFactor*quota + 1024
	base := e.offsets[wid] + partLo
	// Lane bodies run the same block compute path as a fused work-item,
	// written directly into the lane's slot: quota-bounded blocks of
	// min(blockCycles, quota−counter, limitMax−trips) attempts, each
	// yielding at most as many outputs as the slot has room left for.
	// CycleBlock keeps the value sequence identical to a gated walk
	// (TestRunItemPartBlockEquivalence), and the pooled scratch is shared
	// across RunItemPart calls, so a lane allocates nothing in steady
	// state.
	bufs := blockBuffersPool.Get().(*blockBuffers)
	defer blockBuffersPool.Put(bufs)
	for sector := 0; sector < cfg.Sectors; sector++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: work-item %d part %d cancelled before sector %d: %w", wid, part, sector, err)
			}
		}
		gen.SetParams(gamma.MustFromVariance(cfg.variance(sector)))
		out := dst[base+int64(sector)*limitMain:]
		var counter, trips int64
		for counter < quota && trips < limitMax {
			n := min(blockCycles, quota-counter, limitMax-trips)
			counter += int64(gen.CycleBlock(out[counter:counter+n], int(n), bufs.scratch))
			trips += n
		}
		if counter < quota {
			return fmt.Errorf("core: work-item %d part %d starved in sector %d: %d/%d outputs within limitMax=%d",
				wid, part, sector, counter, quota, limitMax)
		}
	}
	stats.Cycles = gen.Cycles()
	stats.Accepted = gen.Accepted()
	if stats.Accepted > 0 {
		stats.RejectionRate = float64(stats.Cycles-stats.Accepted) / float64(stats.Accepted)
	}
	return nil
}
