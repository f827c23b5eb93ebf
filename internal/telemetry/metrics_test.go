package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestNilGaugeAndHistogramAreNoOps(t *testing.T) {
	var r *Recorder
	g := r.Gauge("x.y", "values", "desc")
	h := r.Histogram("x.z", "us", "desc")
	if g != nil || h != nil {
		t.Fatalf("nil recorder must hand out nil instruments, got %v %v", g, h)
	}
	g.Set(7)
	g.Add(3)
	h.Record(42)
	if g.Value() != 0 || g.Name() != "" || g.Unit() != "" || g.Desc() != "" {
		t.Fatalf("nil gauge leaked state")
	}
	if h.Name() != "" || h.Unit() != "" || h.Desc() != "" {
		t.Fatalf("nil histogram leaked state")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P99 != 0 {
		t.Fatalf("nil histogram snapshot non-zero: %+v", s)
	}
	if r.Gauges() != nil || r.Histograms() != nil {
		t.Fatalf("nil recorder must list nil instrument slices")
	}
}

func TestGaugeSetAddValue(t *testing.T) {
	r := New(16)
	g := r.Gauge("pool.depth", "values", "live pool depth")
	g.Set(10)
	g.Add(-3)
	g.Add(1)
	if got := g.Value(); got != 8 {
		t.Fatalf("gauge value = %d, want 8", got)
	}
	if g.Name() != "pool.depth" || g.Unit() != "values" || g.Desc() != "live pool depth" {
		t.Fatalf("gauge metadata mismatch: %q %q %q", g.Name(), g.Unit(), g.Desc())
	}
	if g2 := r.Gauge("pool.depth", "other", "other"); g2 != g {
		t.Fatalf("same name must return the same gauge handle")
	}
	if gs := r.Gauges(); len(gs) != 1 || gs[0] != g {
		t.Fatalf("Gauges() = %v", gs)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4}, {16, 4},
		{17, 5},
		{1 << 20, 20},
		{1<<20 + 1, 21},
		{math.MaxInt64, NumHistogramBuckets - 1},
	}
	for _, c := range cases {
		if got := histogramBucket(c.v); got != c.want {
			t.Errorf("histogramBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every non-overflow bucket's bound must actually land in its own
	// bucket, and bound+1 in the next — the invariant the Prometheus
	// cumulative export depends on.
	for i := 0; i < NumHistogramBuckets-1; i++ {
		b := HistogramBound(i)
		if got := histogramBucket(b); got != i {
			t.Errorf("bound %d of bucket %d maps to bucket %d", b, i, got)
		}
		if i < NumHistogramBuckets-2 {
			if got := histogramBucket(b + 1); got != i+1 {
				t.Errorf("bound+1 (%d) maps to bucket %d, want %d", b+1, got, i+1)
			}
		}
	}
	if HistogramBound(NumHistogramBuckets-1) != math.MaxInt64 {
		t.Fatalf("overflow bucket bound must be MaxInt64")
	}
}

func TestHistogramSnapshotQuantiles(t *testing.T) {
	r := New(16)
	h := r.Histogram("svc.time", "us", "service time")
	// 90 fast observations at 1, 9 at 100, 1 at 1000.
	for i := 0; i < 90; i++ {
		h.Record(1)
	}
	for i := 0; i < 9; i++ {
		h.Record(100)
	}
	h.Record(1000)
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 90+900+1000 || s.Max != 1000 {
		t.Fatalf("snapshot stats: %+v", s)
	}
	if s.P50 != 1 {
		t.Errorf("p50 = %d, want 1", s.P50)
	}
	// 100 lands in bucket (64,128] => upper bound 128.
	if s.P90 != 1 && s.P90 != 128 {
		t.Errorf("p90 = %d, want 1 (rank 90 is the last fast obs) or 128", s.P90)
	}
	if s.P99 != 128 {
		t.Errorf("p99 = %d, want 128 (bucket bound of the 99th obs)", s.P99)
	}
	// Quantile 1.0 must hit the max observation exactly (clamped bound).
	if q := s.Quantile(1.0); q != 1000 {
		t.Errorf("q100 = %d, want 1000", q)
	}
	if h2 := r.Histogram("svc.time", "x", "x"); h2 != h {
		t.Fatalf("same name must return the same histogram handle")
	}
	if hs := r.Histograms(); len(hs) != 1 || hs[0] != h {
		t.Fatalf("Histograms() = %v", hs)
	}
}

func TestHistogramQuantileClampsToMax(t *testing.T) {
	r := New(16)
	h := r.Histogram("clamp", "us", "clamp test")
	h.Record(5) // bucket (4,8], bound 8
	s := h.Snapshot()
	if s.P50 != 5 || s.P99 != 5 || s.Max != 5 {
		t.Fatalf("single observation must report itself, got %+v", s)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	r := New(16)
	h := r.Histogram("conc", "values", "concurrency test")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total != workers*per {
		t.Fatalf("bucket total = %d, want %d", total, workers*per)
	}
	if s.Max != workers*per-1 {
		t.Fatalf("max = %d, want %d", s.Max, workers*per-1)
	}
}

// TestHistogramBatchMatchesRecord: publishing observations through
// batches leaves every Snapshot field — buckets, count, sum, max and
// percentiles — exactly as recording them one by one does, including
// zero, negative and overflow-bucket values, batches split at arbitrary
// points, empty batches and a max that only a later batch raises.
func TestHistogramBatchMatchesRecord(t *testing.T) {
	obs := []int64{1, 1, 2, 3, 0, -4, 7, 1, 1 << 20, 5, math.MaxInt64, 2, 9, 1, 4}
	for _, split := range []int{1, 2, 3, 5, len(obs)} {
		one := New(8).Histogram("h", "trips", "d")
		bat := New(8).Histogram("h", "trips", "d")
		for _, v := range obs {
			one.Record(v)
		}
		var b HistogramBatch
		bat.RecordBatch(&b) // empty batch: no-op
		for i, v := range obs {
			b.Record(v)
			if (i+1)%split == 0 || i == len(obs)-1 {
				bat.RecordBatch(&b)
				b = HistogramBatch{}
			}
		}
		if so, sb := one.Snapshot(), bat.Snapshot(); so != sb {
			t.Fatalf("split %d: per-value %+v, batched %+v", split, so, sb)
		}
	}
	var nilH *Histogram
	var b HistogramBatch
	b.Record(3)
	nilH.RecordBatch(&b) // nil histogram swallows the batch
}

// The alloc gates are meaningful only without -race (whose shadow
// instrumentation allocates); testing.AllocsPerRun already runs the body
// with GC pinned.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	r := New(16)
	h := r.Histogram("alloc", "us", "alloc gate")
	g := r.Gauge("alloc.g", "values", "alloc gate")
	var v int64
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		g.Set(v)
		g.Add(1)
		v++
	}); n != 0 {
		t.Fatalf("enabled Record/Set/Add allocated %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		var b HistogramBatch
		b.Record(v)
		b.Record(v + 1)
		h.RecordBatch(&b)
		v++
	}); n != 0 {
		t.Fatalf("batched Record/RecordBatch allocated %.1f allocs/op, want 0", n)
	}
	var hn *Histogram
	var gn *Gauge
	if n := testing.AllocsPerRun(1000, func() {
		var b HistogramBatch
		b.Record(v)
		hn.RecordBatch(&b)
		hn.Record(v)
		gn.Set(v)
		v++
	}); n != 0 {
		t.Fatalf("nil-receiver no-op allocated %.1f allocs/op, want 0", n)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	r := New(16)
	h := r.Histogram("bench", "us", "record benchmark")
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(int64(i))
		}
	})
	b.Run("nil", func(b *testing.B) {
		var hn *Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hn.Record(int64(i))
		}
	})
}
