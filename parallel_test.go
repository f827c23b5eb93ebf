package decwi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/decwi/decwi/internal/telemetry"
)

// bitwiseEqual fails the test at the first differing float32 slot.
func bitwiseEqual(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d is %x, sequential Generate has %x", label, i, got[i], want[i])
		}
	}
}

// TestGenerateParallelMatchesGenerate is the acceptance-criteria
// matrix: for the four Table I configurations, every (ChunkWorkItems,
// Workers) choice — including a chunk larger than the work-item axis
// and a BreakID > 0 delayed exit — produces output bitwise-identical to the
// sequential Generate, with identical layout and rejection metadata.
func TestGenerateParallelMatchesGenerate(t *testing.T) {
	for _, c := range AllConfigs {
		opt := GenerateOptions{
			Scenarios: 3000, Sectors: 2,
			Variances: []float64{0.7, 2.2},
			Seed:      0xDECA1, BreakID: 2,
		}
		seq, err := Generate(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 2, 3, 9} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%v/chunk=%d/workers=%d", c, chunk, workers)
				res, err := GenerateParallel(c, ParallelOptions{
					GenerateOptions: opt, ChunkWorkItems: chunk, Workers: workers,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				bitwiseEqual(t, name, res.Values, seq.Values)
				if res.RejectionRate != seq.RejectionRate {
					t.Errorf("%s: rejection rate %v, sequential %v", name, res.RejectionRate, seq.RejectionRate)
				}
				if res.WorkItems != seq.WorkItems {
					t.Errorf("%s: work-items %d, sequential %d", name, res.WorkItems, seq.WorkItems)
				}
				for k := 0; k < opt.Sectors; k++ {
					bitwiseEqual(t, fmt.Sprintf("%s/sector%d", name, k), res.Sector(k), seq.Sector(k))
				}
			}
		}
	}
}

// TestGenerateParallelTinyQuota: equality must hold when work-items get
// quotas of 0 or 1 (Scenarios < WorkItems) — the edge the old
// scenario-sharded runner clamped away.
func TestGenerateParallelTinyQuota(t *testing.T) {
	for _, scenarios := range []int64{1, 2, 3, 7} {
		opt := GenerateOptions{Scenarios: scenarios, Sectors: 2, Seed: 5, BreakID: 1}
		seq, err := Generate(Config4, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := GenerateParallel(Config4, ParallelOptions{
			GenerateOptions: opt, ChunkWorkItems: 2, Workers: 4,
		})
		if err != nil {
			t.Fatalf("scenarios=%d: %v", scenarios, err)
		}
		bitwiseEqual(t, fmt.Sprintf("scenarios=%d", scenarios), res.Values, seq.Values)
	}
}

// TestGenerateParallelChunkSizes: explicit chunk sizes, from per-work-
// item singletons to one oversized chunk, never change the bytes.
func TestGenerateParallelChunkSizes(t *testing.T) {
	opt := GenerateOptions{Scenarios: 2000, Sectors: 3, Seed: 11}
	seq, err := Generate(Config1, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunkWI := range []int{1, 2, 3, 5, 6, 100} {
		res, err := GenerateParallel(Config1, ParallelOptions{
			GenerateOptions: opt, Workers: 3, ChunkWorkItems: chunkWI,
		})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunkWI, err)
		}
		bitwiseEqual(t, fmt.Sprintf("chunk=%d", chunkWI), res.Values, seq.Values)
		size := min(chunkWI, res.WorkItems)
		if want := (res.WorkItems + size - 1) / size; res.Chunks != want {
			t.Errorf("chunk=%d: %d chunks, want %d", chunkWI, res.Chunks, want)
		}
	}
}

// TestGenerateParallelProperty is the testing/quick sweep: random
// configuration, workload and scheduling choices always reproduce the
// sequential bytes.
func TestGenerateParallelProperty(t *testing.T) {
	sess, err := NewSession("FPGA")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	prop := func(cfgSel, seed uint64, scen uint16, sectors, workers, chunk uint8) bool {
		c := AllConfigs[cfgSel%uint64(len(AllConfigs))]
		opt := GenerateOptions{
			Scenarios: int64(scen%4096) + 1,
			Sectors:   int(sectors%3) + 1,
			Seed:      seed,
			BreakID:   int(seed % 3),
		}
		seq, err := Generate(c, opt)
		if err != nil {
			t.Logf("Generate: %v", err)
			return false
		}
		if seed%2 == 1 {
			// Half the sweep also checks Session's Listing 1 dataflow:
			// the parallel path always runs fused chunks, so this
			// cross-checks the two transports.
			kr, err := sess.EnqueueGamma(c, opt, false)
			if err != nil {
				t.Logf("EnqueueGamma: %v", err)
				return false
			}
			for i := range seq.Values {
				if kr.Host[i] != seq.Values[i] {
					t.Logf("value %d: Session %x Generate %x", i, kr.Host[i], seq.Values[i])
					return false
				}
			}
		}
		res, err := GenerateParallel(c, ParallelOptions{
			GenerateOptions: opt,
			Workers:         int(workers % 5),
			ChunkWorkItems:  int(chunk % 10),
		})
		if err != nil {
			t.Logf("GenerateParallel: %v", err)
			return false
		}
		if len(res.Values) != len(seq.Values) {
			return false
		}
		for i := range seq.Values {
			if res.Values[i] != seq.Values[i] {
				t.Logf("value %d: parallel %x sequential %x", i, res.Values[i], seq.Values[i])
				return false
			}
		}
		return res.RejectionRate == seq.RejectionRate
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateParallelStealStress hammers the work-stealing cursor:
// single-work-item chunks, more workers than cores, many repetitions,
// GOMAXPROCS pinned to 4 so the race detector (the tree-wide -race
// gate runs this file) sees real interleaving. Every repetition must
// produce the same bytes.
func TestGenerateParallelStealStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	opt := ParallelOptions{
		GenerateOptions: GenerateOptions{Scenarios: 900, Sectors: 2, Seed: 21},
		Workers:         4, ChunkWorkItems: 1,
	}
	first, err := GenerateParallel(Config2, opt)
	if err != nil {
		t.Fatal(err)
	}
	reps := 20
	if testing.Short() {
		reps = 5
	}
	for rep := 0; rep < reps; rep++ {
		res, err := GenerateParallel(Config2, opt)
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, fmt.Sprintf("rep=%d", rep), res.Values, first.Values)
	}
}

// TestGenerateParallelCancelOnFault: a chunk failure mid-run cancels
// the outstanding chunks promptly — the run returns the first error
// without draining the remaining work, and no scheduler goroutine
// outlives the call.
func TestGenerateParallelCancelOnFault(t *testing.T) {
	before := runtime.NumGoroutine()
	var executed atomic.Int64
	parallelChunkFault = func(ctx context.Context, chunk int) error {
		switch n := executed.Add(1); {
		case n == 2:
			return fmt.Errorf("injected fault in chunk %d", chunk)
		case n > 2:
			// The faulting worker may be descheduled before it cancels;
			// a later claim waits for the cancel rather than racing
			// through the remaining chunks.
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	defer func() { parallelChunkFault = nil }()

	_, err := GenerateParallel(Config3, ParallelOptions{
		GenerateOptions: GenerateOptions{Scenarios: 4000, Sectors: 2, Seed: 9},
		Workers:         2, ChunkWorkItems: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("faulted run returned %v, want injected fault", err)
	}
	// The scheduler cancels on first failure: with 8 single-work-item
	// chunks and the fault injected on the second claim, the remaining
	// chunks must never start.
	if n := executed.Load(); n >= 8 {
		t.Errorf("fault did not cancel outstanding chunks: %d of 8 claimed", n)
	}
	// All workers are joined before GenerateParallel returns; allow the
	// runtime a moment to retire exiting goroutines.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 50 {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGenerateParallelContextCancel: an external cancellation (the
// service layer's timeout/disconnect path) stops the run at the next
// chunk boundary, returns the context's error instead of a partial
// buffer, and joins every scheduler goroutine.
func TestGenerateParallelContextCancel(t *testing.T) {
	before := runtime.NumGoroutine()

	// Already-cancelled context: the claim loop must not execute a chunk.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := GenerateParallelContext(pre, Config2, ParallelOptions{
		GenerateOptions: GenerateOptions{Scenarios: 4000, Sectors: 2, Seed: 5},
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}

	// Cancellation mid-run, injected between chunk claims via the same
	// hook the fault test uses (rejection sampling offers no natural way
	// to park a chunk).
	ctx, cancel := context.WithCancel(context.Background())
	var claims atomic.Int64
	parallelChunkFault = func(context.Context, int) error {
		if claims.Add(1) == 2 {
			cancel()
		}
		return nil
	}
	defer func() { parallelChunkFault = nil; cancel() }()
	_, err := GenerateParallelContext(ctx, Config3, ParallelOptions{
		GenerateOptions: GenerateOptions{Scenarios: 4000, Sectors: 2, Seed: 9},
		Workers:         2, ChunkWorkItems: 1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if n := claims.Load(); n >= 8 {
		t.Errorf("cancellation did not stop the claim loop: %d of 8 chunks claimed", n)
	}

	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 50 {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGenerateParallelValidation rejects malformed scheduling knobs and
// workloads up front.
func TestGenerateParallelValidation(t *testing.T) {
	good := GenerateOptions{Scenarios: 64, Sectors: 1}
	for name, opt := range map[string]ParallelOptions{
		"negative workers": {GenerateOptions: good, Workers: -2},
		"negative chunk":   {GenerateOptions: good, ChunkWorkItems: -1},
		"zero scenarios":   {GenerateOptions: GenerateOptions{Sectors: 1}},
		"negative work-items": {GenerateOptions: GenerateOptions{
			Scenarios: 64, Sectors: 1, WorkItems: -3,
		}},
	} {
		if _, err := GenerateParallel(Config1, opt); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := GenerateParallel(Config1, ParallelOptions{GenerateOptions: good}); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// TestGenerateParallelDefaultsMatchGenerate: the zero-value scheduling
// knobs (GOMAXPROCS everything) still reproduce the sequential bytes —
// the default path users actually hit.
func TestGenerateParallelDefaultsMatchGenerate(t *testing.T) {
	opt := GenerateOptions{Scenarios: 1500, Sectors: 2}
	seq, err := Generate(Config2, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GenerateParallel(Config2, ParallelOptions{GenerateOptions: opt})
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "defaults", res.Values, seq.Values)
	if res.Workers < 1 || res.Chunks < 1 {
		t.Errorf("scheduler metadata not populated: %+v", res)
	}
}

// TestGenerateParallelTelemetry: the scheduler surfaces its chunk and
// steal accounting through the recorder, and the chunk
// spans it records into the run trace cover every chunk exactly once.
func TestGenerateParallelTelemetry(t *testing.T) {
	rec := telemetry.New(1 << 16)
	res, err := GenerateParallel(Config1, ParallelOptions{
		GenerateOptions: GenerateOptions{
			Scenarios: 1200, Sectors: 2, Seed: 3, Telemetry: rec,
		},
		Workers: 2, ChunkWorkItems: 1,
		Trace: rec.Trace(),
	})
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{}
	for _, c := range rec.Counters() {
		counters[c.Name()] = c.Value()
	}
	if got := counters["parallel.chunks"]; got != int64(res.Chunks) {
		t.Errorf("parallel.chunks = %d, result reports %d", got, res.Chunks)
	}
	if got := counters["parallel.steals"]; got != int64(res.Steals) {
		t.Errorf("parallel.steals = %d, result reports %d", got, res.Steals)
	}
	if res.ChunkImbalance < 1 {
		t.Errorf("chunk imbalance %v < 1", res.ChunkImbalance)
	}
	var busy int64
	for name, v := range counters {
		if strings.HasPrefix(name, "parallel.worker-busy[") {
			busy += v
		}
	}
	if busy <= 0 {
		t.Error("no parallel.worker-busy[*] time recorded")
	}
	seen := map[int64]int{}
	for _, sp := range rec.Trace().Snapshot().Spans {
		if strings.HasPrefix(sp.Name, "chunk[") {
			seen[sp.Arg]++
			if !strings.HasPrefix(sp.Track, "engine worker ") {
				t.Errorf("chunk span %d on track %q", sp.Arg, sp.Track)
			}
		}
	}
	for chunk := 0; chunk < res.Chunks; chunk++ {
		if seen[int64(chunk)] != 1 {
			t.Errorf("chunk %d has %d chunk spans, want 1", chunk, seen[int64(chunk)])
		}
	}
}

// TestGenerateParallelTelemetryDoesNotPerturb extends the telemetry
// non-perturbation guarantee to the parallel path: tracing changes no
// byte of the output.
func TestGenerateParallelTelemetryDoesNotPerturb(t *testing.T) {
	base := ParallelOptions{
		GenerateOptions: GenerateOptions{Scenarios: 2200, Sectors: 2, Seed: 13, BreakID: 1},
		Workers:         2, ChunkWorkItems: 2,
	}
	plain, err := GenerateParallel(Config3, base)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Telemetry = telemetry.New(1 << 16)
	traced.Trace = traced.Telemetry.Trace()
	got, err := GenerateParallel(Config3, traced)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "traced", got.Values, plain.Values)
	if got.RejectionRate != plain.RejectionRate {
		t.Errorf("tracing changed the rejection rate: %v vs %v", got.RejectionRate, plain.RejectionRate)
	}
	if traced.Trace.SpanCount() == 0 {
		t.Error("traced run recorded no spans")
	}
}

// TestGenerateParallelMetricsOnlyRecorder: a recorder built with span
// budget 0 (decwi-served, the -http CLIs) carries no run trace, so no
// span is recorded, yet the scheduler and engine counters still count.
func TestGenerateParallelMetricsOnlyRecorder(t *testing.T) {
	rec := telemetry.New(0)
	res, err := GenerateParallel(Config1, ParallelOptions{
		GenerateOptions: GenerateOptions{
			Scenarios: 1200, Sectors: 2, Seed: 3, Telemetry: rec,
		},
		Workers: 2, ChunkWorkItems: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Trace() != nil {
		t.Error("metrics-only recorder carries a run trace")
	}
	counters := map[string]int64{}
	for _, c := range rec.Counters() {
		counters[c.Name()] = c.Value()
	}
	if got := counters["parallel.chunks"]; got != int64(res.Chunks) || got == 0 {
		t.Errorf("parallel.chunks = %d, result reports %d chunks", got, res.Chunks)
	}
	var busy, words int64
	for name, v := range counters {
		switch {
		case strings.HasPrefix(name, "parallel.worker-busy["):
			busy += v
		case strings.HasSuffix(name, ".block-words"):
			words += v
		}
	}
	if busy <= 0 || words <= 0 {
		t.Errorf("counters stopped counting: worker-busy %d ns, block-words %d", busy, words)
	}
}
