package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// This file adds the live-metrics instruments to the recorder: Gauge (a
// settable level) and Histogram (a fixed-bucket power-of-two latency /
// size distribution). Both follow the Counter discipline exactly:
//
//   - handles are obtained once from the Recorder registry and then
//     driven on hot paths;
//   - a nil handle IS the disabled implementation — every method
//     tolerates a nil receiver, so instrumented code pays one branch
//     when telemetry is off;
//   - all mutation is lock-free (atomic adds / stores / CAS), so a
//     Record on the engine hot path costs O(1) and never allocates
//     (TestHistogramRecordZeroAlloc, BenchmarkHistogramRecord).
//
// The motivation is distributional: the paper's nested rejection loops
// make per-work-item latency long-tailed, so averages (counters) hide
// exactly the behaviour that makes decoupled work-items win. Histograms
// expose the tail (p50/p90/p99/max) and gauges expose live levels
// (FIFO occupancy, queue depth, busy workers) to the /metrics plane
// served by internal/telemetry/metricsrv.

// Gauge is a named atomic level: unlike a Counter it is expected to go
// up and down (FIFO occupancy, workers active, queue depth). A nil
// *Gauge swallows everything.
type Gauge struct {
	header
	v atomic.Int64
}

// Set overwrites the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the level by d (use +1/-1 for enter/leave accounting).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Name returns the gauge name ("" on nil).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Unit returns the gauge unit ("" on nil).
func (g *Gauge) Unit() string {
	if g == nil {
		return ""
	}
	return g.unit
}

// Desc returns the description ("" on nil).
func (g *Gauge) Desc() string {
	if g == nil {
		return ""
	}
	return g.desc
}

// NumHistogramBuckets is the fixed bucket count of every Histogram.
// Bucket i (i < NumHistogramBuckets-1) counts observations v with
// HistogramBound(i-1) < v ≤ HistogramBound(i), where HistogramBound(i)
// = 2^i; the last bucket is the +Inf overflow. 40 buckets cover
// 1 .. 2^38 (≈ 4.6 minutes in µs, ≈ 274 G in counts), enough for every
// unit the stack records without a per-histogram bound choice.
const NumHistogramBuckets = 40

// HistogramBound returns the inclusive upper bound of bucket i
// (math.MaxInt64 for the overflow bucket).
func HistogramBound(i int) int64 {
	if i >= NumHistogramBuckets-1 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// histogramBucket maps an observation to its bucket index: v ≤ 1 lands
// in bucket 0 (bound 2^0 = 1, which also absorbs zero/negative
// observations), and v in (2^(i-1), 2^i] lands in bucket i.
func histogramBucket(v int64) int {
	if v <= 1 {
		return 0
	}
	// v-1 ∈ [2^(i-1), 2^i - 1]  ⇒  bits.Len64(v-1) = i.
	b := bits.Len64(uint64(v - 1))
	if b >= NumHistogramBuckets {
		return NumHistogramBuckets - 1
	}
	return b
}

// Histogram is a fixed-bucket power-of-two distribution: an atomic
// bucket array plus count/sum/max, giving O(1) lock-free Record and a
// percentile snapshot. A nil *Histogram swallows everything.
type Histogram struct {
	header

	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumHistogramBuckets]atomic.Int64
}

// Record adds one observation. It is lock-free (three atomic adds plus
// a CAS loop for the max) and never allocates.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	h.buckets[histogramBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// HistogramBatch accumulates observations for one owner without
// atomics, to be published with a single Histogram.RecordBatch: a hot
// loop that would otherwise Record once per item keeps a batch on its
// stack instead. The zero value is an empty batch.
type HistogramBatch struct {
	count, sum, max int64
	buckets         [NumHistogramBuckets]int64
}

// Record adds one observation to the batch.
func (b *HistogramBatch) Record(v int64) {
	b.buckets[histogramBucket(v)]++
	b.count++
	b.sum += v
	if v > b.max {
		b.max = v
	}
}

// RecordBatch publishes every observation of b, leaving the histogram
// in the state the same Records one by one would have (one atomic add
// per non-empty bucket, then count, sum and a CAS loop for the max). A
// nil histogram swallows the batch; b itself is not modified.
func (h *Histogram) RecordBatch(b *HistogramBatch) {
	if h == nil || b.count == 0 {
		return
	}
	for i, n := range b.buckets {
		if n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(b.count)
	h.sum.Add(b.sum)
	for {
		m := h.max.Load()
		if b.max <= m || h.max.CompareAndSwap(m, b.max) {
			return
		}
	}
}

// Name returns the histogram name ("" on nil).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Unit returns the histogram unit ("" on nil).
func (h *Histogram) Unit() string {
	if h == nil {
		return ""
	}
	return h.unit
}

// Desc returns the description ("" on nil).
func (h *Histogram) Desc() string {
	if h == nil {
		return ""
	}
	return h.desc
}

// HistogramSnapshot is a point-in-time copy of a histogram. Buckets are
// per-bucket (non-cumulative) counts; exporters derive the Prometheus
// cumulative form. The percentiles are bucket-upper-bound estimates
// clamped to the observed Max, so they are exact for the power-of-two
// resolution the buckets provide and never exceed a real observation.
type HistogramSnapshot struct {
	Name, Unit, Desc string
	Count, Sum, Max  int64
	Buckets          [NumHistogramBuckets]int64
	P50, P90, P99    int64
}

// Quantile returns the bucket-resolution estimate for quantile q in
// (0, 1]: the upper bound of the bucket holding the ⌈q·Count⌉-th
// observation, clamped to Max.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= rank {
			b := HistogramBound(i)
			if b > s.Max {
				b = s.Max
			}
			return b
		}
	}
	return s.Max
}

// Snapshot copies the histogram state and computes the report
// percentiles. Buckets race individually against concurrent Records —
// the copy is not a single atomic cut — but each value read is itself
// consistent, which is the usual scrape contract. Zero value on nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Name:  h.name,
		Unit:  h.unit,
		Desc:  h.desc,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	// Clamp the count to the bucket total so the percentile walk cannot
	// run past the end when Records land between the loads above.
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total < s.Count {
		s.Count = total
	}
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}
