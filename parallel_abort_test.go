package decwi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestGenerateParallelCancellationClassified: an external cancellation
// that lands *mid-chunk* — the engine returns a wrapped context error
// from inside RunChunk — must surface as the documented "parallel
// generation cancelled" wrap, not as that chunk's own failure. (It used
// to escape through fail() as "decwi: chunk N …: context canceled".)
func TestGenerateParallelCancellationClassified(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var claims atomic.Int64
	parallelChunkFault = func(_ context.Context, chunk int) error {
		if claims.Add(1) == 2 {
			// Simulate the engine observing the cancellation inside the
			// chunk body: cancel first, then return the wrapped ctx error
			// RunChunk would produce.
			cancel()
			return fmt.Errorf("core: work-item cancelled before sector 1: %w", context.Canceled)
		}
		return nil
	}
	defer func() { parallelChunkFault = nil }()

	_, err := GenerateParallelContext(ctx, Config3, ParallelOptions{
		GenerateOptions: GenerateOptions{Scenarios: 4000, Sectors: 2, Seed: 9},
		Workers:         1, ChunkWorkItems: 1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "parallel generation cancelled") {
		t.Fatalf("mid-chunk cancellation surfaced as %q, want the documented cancellation wrap", err)
	}
	if strings.Contains(err.Error(), "chunk") {
		t.Fatalf("mid-chunk cancellation blamed a chunk: %q", err)
	}
}

// TestGenerateParallelInjectedCtxErrorStaysFailure: a chunk error that
// merely *wraps* context.Canceled while nothing actually cancelled the
// run (a library error, a test fault) must stay on the chunk-failure
// path — the classification keys on the run context's state, not on the
// error's type alone.
func TestGenerateParallelInjectedCtxErrorStaysFailure(t *testing.T) {
	var claims atomic.Int64
	parallelChunkFault = func(_ context.Context, chunk int) error {
		if claims.Add(1) == 2 {
			return fmt.Errorf("stream source gone: %w", context.Canceled)
		}
		return nil
	}
	defer func() { parallelChunkFault = nil }()

	_, err := GenerateParallel(Config3, ParallelOptions{
		GenerateOptions: GenerateOptions{Scenarios: 4000, Sectors: 2, Seed: 9},
		Workers:         1, ChunkWorkItems: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("injected chunk error returned %v, want a chunk-attributed failure", err)
	}
	if !strings.Contains(err.Error(), "stream source gone") {
		t.Fatalf("chunk failure lost its cause: %q", err)
	}
}

// TestChunkImbalance: unit coverage of the skew statistic — fewer than
// two chunks mean no skew, and 0 ns chunks clamp to 1 ns.
func TestChunkImbalance(t *testing.T) {
	for _, tc := range []struct {
		name string
		durs []int64
		want float64
	}{
		{"empty", nil, 1},
		{"single", []int64{50}, 1},
		{"plain ratio", []int64{100, 400}, 4},
		{"zero clamps", []int64{0, 5}, 5},
	} {
		if got := chunkImbalance(tc.durs); got != tc.want {
			t.Errorf("%s: chunkImbalance(%v) = %v, want %v", tc.name, tc.durs, got, tc.want)
		}
	}
}
