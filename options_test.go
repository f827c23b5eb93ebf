package decwi

import (
	"runtime"
	"testing"

	"github.com/decwi/decwi/internal/perf"
	"github.com/decwi/decwi/internal/telemetry"
)

// TestNormalizeGenerate pins the shared defaulting table every facade
// entry point (Generate, GenerateParallel, Session.EnqueueGamma) flows
// through, so the entry points cannot drift apart.
func TestNormalizeGenerate(t *testing.T) {
	k := perf.Config3 // 8 work-items
	for _, tc := range []struct {
		name    string
		in      GenerateOptions
		want    GenerateOptions
		wantErr bool
	}{
		{
			name: "all defaults",
			in:   GenerateOptions{Scenarios: 10, Sectors: 1},
			want: GenerateOptions{Scenarios: 10, Sectors: 1, Variance: 1.39, Seed: 1, WorkItems: 8},
		},
		{
			name: "explicit fields survive",
			in:   GenerateOptions{Scenarios: 10, Sectors: 1, Variance: 2.5, Seed: 9, WorkItems: 3},
			want: GenerateOptions{Scenarios: 10, Sectors: 1, Variance: 2.5, Seed: 9, WorkItems: 3},
		},
		{
			name: "variances slice suppresses scalar default",
			in:   GenerateOptions{Scenarios: 10, Sectors: 2, Variances: []float64{1, 2}},
			want: GenerateOptions{Scenarios: 10, Sectors: 2, Variances: []float64{1, 2}, Seed: 1, WorkItems: 8},
		},
		{
			name:    "zero scenarios rejected",
			in:      GenerateOptions{Sectors: 1},
			wantErr: true,
		},
		{
			name:    "negative scenarios rejected",
			in:      GenerateOptions{Scenarios: -4, Sectors: 1},
			wantErr: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := normalizeGenerate(k, tc.in)
			if tc.wantErr {
				if err == nil {
					t.Fatal("expected error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Scenarios != tc.want.Scenarios || got.Sectors != tc.want.Sectors ||
				got.Variance != tc.want.Variance || got.Seed != tc.want.Seed ||
				got.WorkItems != tc.want.WorkItems || len(got.Variances) != len(tc.want.Variances) {
				t.Fatalf("normalized %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestNormalizeParallel pins the scheduling-knob resolution: the even
// split over GOMAXPROCS shards (clamped to the work-items), the explicit
// chunk size, its clamp, and the chunk-count arithmetic. Cases that set
// procs run at that GOMAXPROCS.
func TestNormalizeParallel(t *testing.T) {
	k := perf.Config1 // 6 work-items
	gomax := runtime.GOMAXPROCS(0)
	split := (6 + min(gomax, 6) - 1) / min(gomax, 6)
	base := GenerateOptions{Scenarios: 100, Sectors: 1}
	for _, tc := range []struct {
		name      string
		procs     int
		in        ParallelOptions
		wantChunk int
		wantN     int // chunk count
		wantWork  int
		wantErr   bool
	}{
		{
			name:      "all defaults",
			in:        ParallelOptions{GenerateOptions: base},
			wantChunk: split,
			wantN:     (6 + split - 1) / split,
			wantWork:  min(gomax, (6+split-1)/split),
		},
		{
			name:      "shards clamp to work-items",
			procs:     8,
			in:        ParallelOptions{GenerateOptions: base, Workers: 2},
			wantChunk: 1, wantN: 6, wantWork: 2,
		},
		{
			name:      "uneven split rounds chunk size up",
			procs:     4,
			in:        ParallelOptions{GenerateOptions: base, Workers: 1},
			wantChunk: 2, wantN: 3, wantWork: 1,
		},
		{
			name:      "explicit chunk size wins over shards",
			procs:     2,
			in:        ParallelOptions{GenerateOptions: base, Workers: 2, ChunkWorkItems: 1},
			wantChunk: 1, wantN: 6, wantWork: 2,
		},
		{
			name:      "oversized chunk clamps to one chunk",
			in:        ParallelOptions{GenerateOptions: base, Workers: 4, ChunkWorkItems: 99},
			wantChunk: 6, wantN: 1, wantWork: 1,
		},
		{
			name:    "negative workers rejected",
			in:      ParallelOptions{GenerateOptions: base, Workers: -1},
			wantErr: true,
		},
		{
			name:    "negative chunk rejected",
			in:      ParallelOptions{GenerateOptions: base, ChunkWorkItems: -1},
			wantErr: true,
		},
		{
			name: "negative work-items rejected",
			in: ParallelOptions{GenerateOptions: GenerateOptions{
				Scenarios: 100, Sectors: 1, WorkItems: -2,
			}},
			wantErr: true,
		},
		{
			name:    "generate validation propagates",
			in:      ParallelOptions{GenerateOptions: GenerateOptions{Sectors: 1}},
			wantErr: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			got, chunks, err := normalizeParallel(k, tc.in)
			if tc.wantErr {
				if err == nil {
					t.Fatal("expected error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.ChunkWorkItems != tc.wantChunk || chunks != tc.wantN || got.Workers != tc.wantWork {
				t.Fatalf("chunkWI=%d chunks=%d workers=%d, want %d/%d/%d",
					got.ChunkWorkItems, chunks, got.Workers, tc.wantChunk, tc.wantN, tc.wantWork)
			}
			// The workload half must match normalizeGenerate exactly —
			// the anti-drift guarantee the helper exists for.
			g, err := normalizeGenerate(k, tc.in.GenerateOptions)
			if err != nil {
				t.Fatal(err)
			}
			if got.GenerateOptions.Variance != g.Variance || got.GenerateOptions.Seed != g.Seed ||
				got.GenerateOptions.WorkItems != g.WorkItems {
				t.Fatalf("parallel workload normalization diverged: %+v vs %+v", got.GenerateOptions, g)
			}
		})
	}
}

// TestEngineConfigForwardsEveryKnob: engineConfig must forward each
// facade field (including the PR-added BreakID and Telemetry) so
// Generate, GenerateParallel and Session run the same engine.
func TestEngineConfigForwardsEveryKnob(t *testing.T) {
	k := perf.Config2
	opt := GenerateOptions{
		Scenarios: 7, Sectors: 3, Variance: 2.2, Variances: []float64{1, 2, 3},
		WorkItems: 5, Seed: 77,
		StreamOffset: 4099, BreakID: 4, Telemetry: telemetry.New(8),
	}
	cfg := engineConfig(k, opt)
	if cfg.Transform != k.Transform || cfg.MTParams != k.MTParams {
		t.Error("kernel identity not forwarded")
	}
	if cfg.WorkItems != 5 || cfg.Scenarios != 7 || cfg.Sectors != 3 ||
		cfg.SectorVariance != 2.2 || len(cfg.SectorVariances) != 3 ||
		cfg.Seed != 77 ||
		cfg.StreamOffset != 4099 || cfg.BreakID != 4 || cfg.Telemetry != opt.Telemetry {
		t.Fatalf("engine config dropped a knob: %+v", cfg)
	}
}
