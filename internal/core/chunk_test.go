package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

// TestRunChunkEquivalence is this PR's tentpole invariant at the core
// level: assembling a run from work-item chunks — any chunking, any
// execution order, fused emit with no streams — produces the bitwise
// output of the monolithic streamed Run, including BreakID > 0 (the
// delayed-exit overshoot) and per-sector variances. Per-work-item stats
// must agree too.
func TestRunChunkEquivalence(t *testing.T) {
	for _, tc := range tableIConfigs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Transform: tc.transform, MTParams: tc.params,
				WorkItems: 5, Scenarios: 1700, Sectors: 3,
				SectorVariances: []float64{0.5, 1.39, 4.0},
				Seed:            0xC0FFEE,
				BreakID:         2,
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, chunks := range [][][2]int{
				{{0, 5}},                                 // one chunk = whole run
				{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}, // one work-item per chunk
				{{0, 2}, {2, 4}, {4, 5}},                 // uneven pairs
				{{4, 5}, {0, 2}, {2, 4}},                 // out-of-order execution
			} {
				got := make([]float32, len(want.Data))
				stats := make([]WorkItemStats, cfg.WorkItems)
				for _, ch := range chunks {
					if err := e.RunChunk(context.Background(), got, ch[0], ch[1], stats); err != nil {
						t.Fatalf("chunk %v: %v", ch, err)
					}
				}
				for i := range want.Data {
					if got[i] != want.Data[i] {
						t.Fatalf("chunks %v: Data[%d]: chunked %x, Run %x", chunks, i, got[i], want.Data[i])
					}
				}
				for w := range stats {
					g, s := want.PerWI[w], stats[w]
					if g.Cycles != s.Cycles || g.Accepted != s.Accepted || g.Overshoot != s.Overshoot || g.Scenarios != s.Scenarios {
						t.Fatalf("chunks %v: work-item %d stats diverge: Run {cycles %d accepted %d overshoot %d}, chunked {%d %d %d}",
							chunks, w, g.Cycles, g.Accepted, g.Overshoot, s.Cycles, s.Accepted, s.Overshoot)
					}
				}
				if CombineStats(want.PerWI) != CombineStats(stats) {
					t.Fatalf("chunks %v: rejection rate diverges: %v vs %v",
						chunks, CombineStats(want.PerWI), CombineStats(stats))
				}
			}
		})
	}
}

// TestRunChunkTinyQuota: chunked assembly stays exact when work-items
// get quotas of 0 or 1 (Scenarios < WorkItems) — the tiny-quota edge the
// old scenario-sharded runner could not even represent.
func TestRunChunkTinyQuota(t *testing.T) {
	for _, scenarios := range []int64{1, 2, 3, 7} {
		cfg := Config{
			Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
			WorkItems: 4, Scenarios: scenarios, Sectors: 2,
			SectorVariance: 0.9, Seed: 5, BreakID: 1,
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float32, len(want.Data))
		for w := 0; w < cfg.WorkItems; w++ {
			if err := e.RunChunk(context.Background(), got, w, w+1, nil); err != nil {
				t.Fatalf("scenarios=%d chunk %d: %v", scenarios, w, err)
			}
		}
		for i := range want.Data {
			if got[i] != want.Data[i] {
				t.Fatalf("scenarios=%d Data[%d]: chunked %x, Run %x", scenarios, i, got[i], want.Data[i])
			}
		}
	}
}

// TestRunChunkConcurrent: disjoint chunks of one engine may run on
// separate goroutines into one destination buffer (the zero-copy
// assembly contract). Run under -race by the tree-wide gate.
func TestRunChunkConcurrent(t *testing.T) {
	cfg := Config{
		Transform: normal.MarsagliaBray, MTParams: mt.MT521Params,
		WorkItems: 6, Scenarios: 3000, Sectors: 2,
		SectorVariance: 1.39, Seed: 99,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, len(want.Data))
	stats := make([]WorkItemStats, cfg.WorkItems)
	var wg sync.WaitGroup
	errs := make([]error, cfg.WorkItems)
	for w := 0; w < cfg.WorkItems; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = e.RunChunk(context.Background(), got, w, w+1, stats)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("chunk %d: %v", w, err)
		}
	}
	for i := range want.Data {
		if got[i] != want.Data[i] {
			t.Fatalf("Data[%d]: concurrent chunks %x, Run %x", i, got[i], want.Data[i])
		}
	}
}

// TestRunChunkCancellation: a cancelled context aborts the chunk at the
// next boundary with a wrapped context error.
func TestRunChunkCancellation(t *testing.T) {
	e, err := NewEngine(Config{
		Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
		WorkItems: 2, Scenarios: 2000, Sectors: 4,
		SectorVariance: 1.39, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]float32, 2000*4)
	err = e.RunChunk(ctx, dst, 0, 2, nil)
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("cancelled chunk returned %v, want cancellation error", err)
	}
}

// TestRunChunkValidation: malformed chunk ranges and buffers are
// rejected up front.
func TestRunChunkValidation(t *testing.T) {
	e, err := NewEngine(Config{
		Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
		WorkItems: 2, Scenarios: 64, Sectors: 1,
		SectorVariance: 1.39, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	good := make([]float32, 64)
	for name, run := range map[string]func() error{
		"negative lo":  func() error { return e.RunChunk(context.Background(), good, -1, 1, nil) },
		"hi beyond WI": func() error { return e.RunChunk(context.Background(), good, 0, 3, nil) },
		"empty range":  func() error { return e.RunChunk(context.Background(), good, 1, 1, nil) },
		"short dst":    func() error { return e.RunChunk(context.Background(), make([]float32, 10), 0, 2, nil) },
		"mis-sized stats": func() error {
			return e.RunChunk(context.Background(), good, 0, 2, make([]WorkItemStats, 1))
		},
	} {
		if err := run(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if err := e.RunChunk(context.Background(), good, 0, 2, nil); err != nil {
		t.Errorf("valid chunk rejected: %v", err)
	}
}

// TestEngineLayoutAccessorsCopy: the layout accessors return copies, so
// callers cannot corrupt the engine's precomputed plan.
func TestEngineLayoutAccessorsCopy(t *testing.T) {
	e, err := NewEngine(Config{
		Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
		WorkItems: 3, Scenarios: 100, Sectors: 2,
		SectorVariance: 1.39,
	})
	if err != nil {
		t.Fatal(err)
	}
	off := e.BlockOffsets()
	if len(off) != 4 {
		t.Fatalf("layout size: offsets %d", len(off))
	}
	if off[3] != 200 || off[1]-off[0] != 68 {
		t.Fatalf("layout values: offsets %v", off)
	}
	off[0] = 999
	if e.BlockOffsets()[0] == 999 {
		t.Fatal("layout accessors expose internal slices")
	}
}
