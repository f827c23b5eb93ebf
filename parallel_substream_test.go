package decwi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/decwi/decwi/internal/telemetry"
)

// TestGenerateParallelSubstreams: the (work-item, lane) grid is fully
// deterministic — the bytes depend only on the options, not on the
// worker count or claim order — and selects a stream family distinct
// from Generate's.
func TestGenerateParallelSubstreams(t *testing.T) {
	opt := GenerateOptions{Scenarios: 1800, Sectors: 2, Seed: 17}
	seq, err := Generate(Config2, opt)
	if err != nil {
		t.Fatal(err)
	}
	base := ParallelOptions{GenerateOptions: opt, IntraItemSubstreams: 3}
	var first *ParallelResult
	for _, workers := range []int{1, 2, 4} {
		o := base
		o.Workers = workers
		res, err := GenerateParallel(Config2, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Chunks != res.WorkItems*3 {
			t.Fatalf("workers=%d: %d chunks, want %d lanes", workers, res.Chunks, res.WorkItems*3)
		}
		if first == nil {
			first = res
			continue
		}
		bitwiseEqual(t, fmt.Sprintf("workers=%d", workers), res.Values, first.Values)
		if res.RejectionRate != first.RejectionRate {
			t.Errorf("workers=%d: rejection rate %v, first run %v", workers, res.RejectionRate, first.RejectionRate)
		}
	}
	for i, v := range first.Values {
		if !(v > 0) {
			t.Fatalf("value %d not a positive gamma variate: %g (lane grid did not tile the buffer)", i, v)
		}
	}
	same := true
	for i := range seq.Values {
		if first.Values[i] != seq.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("substream family coincides with the default family")
	}
	if !(first.RejectionRate > 0) {
		t.Errorf("substream run reports rejection rate %v", first.RejectionRate)
	}

	// 0 and 1 lanes are the documented no-ops: byte-identical to Generate.
	for _, subs := range []int{0, 1} {
		res, err := GenerateParallel(Config2, ParallelOptions{
			GenerateOptions: opt, IntraItemSubstreams: subs,
		})
		if err != nil {
			t.Fatalf("subs=%d: %v", subs, err)
		}
		bitwiseEqual(t, fmt.Sprintf("subs=%d", subs), res.Values, seq.Values)
	}
}

// TestGenerateParallelSubstreamValidation: every option whose semantics
// are defined per whole work-item is rejected up front rather than
// silently diverging.
func TestGenerateParallelSubstreamValidation(t *testing.T) {
	good := GenerateOptions{Scenarios: 64, Sectors: 1}
	for name, opt := range map[string]ParallelOptions{
		"negative substreams": {GenerateOptions: good, IntraItemSubstreams: -1},
		"over cap":            {GenerateOptions: good, IntraItemSubstreams: 1025},
		"break-id": {GenerateOptions: GenerateOptions{
			Scenarios: 64, Sectors: 1, BreakID: 1,
		}, IntraItemSubstreams: 2},
		"explicit shards": {GenerateOptions: good, Shards: 2, IntraItemSubstreams: 2},
		"explicit chunk":  {GenerateOptions: good, ChunkWorkItems: 1, IntraItemSubstreams: 2},
	} {
		if _, err := GenerateParallel(Config2, opt); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := GenerateParallel(Config2, ParallelOptions{
		GenerateOptions: good, IntraItemSubstreams: 2,
	}); err != nil {
		t.Errorf("valid substream options rejected: %v", err)
	}
}

// TestGenerateParallelStreamOffset: the facade forwards StreamOffset —
// every worker count reproduces Generate's offset window, and it differs
// from the seed window. The jump itself is checked against the
// word-by-word walk in core's TestStreamOffsetSeekEquivalence.
func TestGenerateParallelStreamOffset(t *testing.T) {
	opt := GenerateOptions{Scenarios: 1500, Sectors: 2, Seed: 7}
	baseline, err := Generate(Config2, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.StreamOffset = 4099
	jumpedSeq, err := Generate(Config2, opt)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range baseline.Values {
		if jumpedSeq.Values[i] != baseline.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("StreamOffset=4099 left the output unchanged")
	}
	for _, workers := range []int{1, 4} {
		res, err := GenerateParallel(Config2, ParallelOptions{GenerateOptions: opt, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, fmt.Sprintf("jump/workers=%d", workers), res.Values, jumpedSeq.Values)
	}
}

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

// TestGenerateParallelAbortedImbalance: a run aborted after one
// completed chunk must report imbalance 1 — claimed-but-never-executed
// chunks used to enter the skew statistic as 1 ns outliers, exploding
// parallel.imbalance-x1000 on every aborted run.
func TestGenerateParallelAbortedImbalance(t *testing.T) {
	rec := telemetry.New(0)
	var claims atomic.Int64
	parallelChunkFault = func(_ context.Context, chunk int) error {
		if claims.Add(1) == 2 {
			return fmt.Errorf("injected fault in chunk %d", chunk)
		}
		return nil
	}
	defer func() { parallelChunkFault = nil }()

	_, err := GenerateParallel(Config3, ParallelOptions{
		GenerateOptions: GenerateOptions{
			Scenarios: 4000, Sectors: 2, Seed: 9, Telemetry: rec,
		},
		Workers: 1, ChunkWorkItems: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("faulted run returned %v, want injected fault", err)
	}
	for _, c := range rec.Counters() {
		if c.Name() == "parallel.imbalance-x1000" {
			if got := c.Value(); got != 1000 {
				t.Fatalf("aborted run reports imbalance ×1000 = %d, want 1000 (one completed chunk)", got)
			}
			return
		}
	}
	t.Fatal("aborted run published no parallel.imbalance-x1000 counter")
}

// TestChunkImbalance: unit coverage of the skew statistic — the -1
// "never completed" sentinel is excluded, fewer than two completed
// chunks mean no skew, and completed 0 ns chunks clamp to 1 ns.
func TestChunkImbalance(t *testing.T) {
	for _, tc := range []struct {
		name string
		durs []int64
		want float64
	}{
		{"empty", nil, 1},
		{"single", []int64{50}, 1},
		{"all sentinels", []int64{-1, -1, -1}, 1},
		{"one completed among sentinels", []int64{-1, 40, -1}, 1},
		{"plain ratio", []int64{100, 400}, 4},
		{"sentinel excluded", []int64{100, -1, 400, -1}, 4},
		{"zero clamps", []int64{0, 5}, 5},
	} {
		if got := chunkImbalance(tc.durs); got != tc.want {
			t.Errorf("%s: chunkImbalance(%v) = %v, want %v", tc.name, tc.durs, got, tc.want)
		}
	}
}
