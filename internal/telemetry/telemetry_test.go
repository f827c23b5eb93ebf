package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"github.com/decwi/decwi/internal/telemetry/flight"
)

// TestNilRecorderIsNoOp pins the disabled-mode contract: every handle a
// nil recorder gives out must swallow all operations without allocating
// or panicking — this is what lets the hot paths stay instrumented
// unconditionally.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	tr := r.Trace()
	if tr != nil {
		t.Fatal("nil recorder returned a run trace")
	}
	if tr.Now() != 0 || tr.Put(flight.Span{Name: "process", EndUS: 5}) != 0 {
		t.Fatal("nil run trace recorded a span")
	}
	c := r.Counter("c", "cycles", "")
	c.Add(5)
	if c.Value() != 0 || c.Name() != "" || c.Unit() != "" || c.Desc() != "" {
		t.Fatal("nil counter retained a value")
	}
	if r.Counters() != nil {
		t.Fatal("nil recorder returned data")
	}
	if r.StallReport() != "" {
		t.Fatal("nil recorder produced a report")
	}
	if err := r.WriteStallReport(&bytes.Buffer{}); err == nil {
		t.Fatal("nil recorder wrote a report")
	}
}

// TestRunTraceBudget: New(n) carries a run trace that keeps the first n
// spans in recording order and counts the rest as dropped, and New(0)
// carries none — the bounded-memory half of the recorder's contract.
func TestRunTraceBudget(t *testing.T) {
	if New(0).Trace() != nil {
		t.Fatal("metrics-only recorder carries a run trace")
	}
	r := New(8)
	for i := 0; i < 20; i++ {
		r.Trace().Put(flight.Span{Track: "lane", Clock: flight.CycleClock, Name: "rejection-retry",
			StartUS: int64(i), EndUS: int64(i), Arg: int64(i)})
	}
	tj := r.Trace().Snapshot()
	if len(tj.Spans) != 8 || tj.Dropped != 12 {
		t.Fatalf("kept %d spans, dropped %d; want 8 and 12", len(tj.Spans), tj.Dropped)
	}
	for i, s := range tj.Spans {
		if s.StartUS != int64(i) || s.ID != flight.SpanID(i+1) {
			t.Fatalf("span %d: id %d at %d, want id %d at %d (recording order)", i, s.ID, s.StartUS, i+1, i)
		}
	}
	if rep := r.StallReport(); !strings.Contains(rep, "spans recorded: 20 (12 past the span budget dropped)") {
		t.Fatalf("report does not account the dropped spans:\n%s", rep)
	}
}

// TestCounterIdempotence checks registry lookups are stable.
func TestCounterIdempotence(t *testing.T) {
	r := New(16)
	c1 := r.Counter("n", "cycles", "desc")
	c2 := r.Counter("n", "ignored", "ignored")
	if c1 != c2 {
		t.Fatal("same name gave two counters")
	}
	c1.Add(3)
	if c2.Value() != 3 {
		t.Fatal("counter handles diverged")
	}
}

// TestRegistryOneKindPerName: counters, gauges and histograms share one
// name space, so asking for a registered name as another kind panics
// with that name, while asking for it as the same kind returns the
// registered handle.
func TestRegistryOneKindPerName(t *testing.T) {
	r := New(0)
	c := r.Counter("x.shared", "events", "a counter")
	mustPanic := func(kind string, register func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, `"x.shared"`) {
				t.Fatalf("registering the counter's name as a %s: recovered %q, want a panic naming it", kind, msg)
			}
		}()
		register()
	}
	mustPanic("gauge", func() { r.Gauge("x.shared", "events", "a gauge") })
	mustPanic("histogram", func() { r.Histogram("x.shared", "us", "a histogram") })
	if r.Counter("x.shared", "events", "") != c {
		t.Fatal("the counter's own kind did not return its handle")
	}
	if len(r.Counters()) != 1 || len(r.Gauges()) != 0 || len(r.Histograms()) != 0 {
		t.Fatalf("a refused registration left an instrument behind: %d counters, %d gauges, %d histograms",
			len(r.Counters()), len(r.Gauges()), len(r.Histograms()))
	}
}

// TestConcurrentEmit drives the recorder and its run trace from several
// goroutines; run with -race this pins the thread-safety of the trace
// and the registries, and every span gets its own id.
func TestConcurrentEmit(t *testing.T) {
	r := New(1 << 14)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := r.Trace()
			c := r.Counter("shared", "cycles", "")
			for i := 0; i < 500; i++ {
				tr.Put(flight.Span{Track: "lane", Clock: flight.CycleClock, Name: "stream.push",
					StartUS: int64(i), EndUS: int64(i)})
				tr.Put(flight.Span{Track: "lane", Clock: flight.CycleClock, Name: "mem-burst",
					StartUS: int64(i), EndUS: int64(i + 4), Arg: 64})
				c.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared", "cycles", "").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	tj := r.Trace().Snapshot()
	if len(tj.Spans) != 8000 || tj.Dropped != 0 {
		t.Fatalf("recorded %d spans (%d dropped), want 8000", len(tj.Spans), tj.Dropped)
	}
	for i, s := range tj.Spans {
		if s.ID != flight.SpanID(i+1) {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
	}
}

// TestStallReportRanking builds a synthetic counter set and checks the
// report ranks cycle groups, sums per-work-item instances, computes the
// rejection rate and separates the wall-clock section.
func TestStallReportRanking(t *testing.T) {
	r := New(16)
	r.Counter("engine.cycles[0]", "cycles", "").Add(700)
	r.Counter("engine.cycles[1]", "cycles", "").Add(300)
	r.Counter("engine.accepted[0]", "cycles", "").Add(600)
	r.Counter("engine.accepted[1]", "cycles", "").Add(200)
	r.Counter("rejection.gamma-loop[0]", "cycles", "gamma rejection loop").Add(90)
	r.Counter("rejection.gamma-loop[1]", "cycles", "gamma rejection loop").Add(60)
	r.Counter("mtfeed.mt1-hold[0]", "cycles", "MT1 feed stream held").Add(40)
	r.Counter("stream.gamma[0].push-block", "ns", "stream backpressure").Add(1_500_000)
	r.Counter("membus.bursts", "events", "").Add(12)

	rep := r.StallReport()
	if !strings.Contains(rep, "combined rejection rate r = 0.2500") {
		t.Fatalf("report missing rejection rate:\n%s", rep)
	}
	// gamma-loop (150) must rank above mt1-hold (40).
	gi := strings.Index(rep, "gamma rejection loop")
	mi := strings.Index(rep, "MT1 feed stream held")
	if gi < 0 || mi < 0 || gi > mi {
		t.Fatalf("cycle ranking wrong (gamma at %d, mt1 at %d):\n%s", gi, mi, rep)
	}
	if !strings.Contains(rep, "15.0%") { // 150/1000 pipeline cycles
		t.Fatalf("report missing gamma-loop share:\n%s", rep)
	}
	if !strings.Contains(rep, "1.500ms") {
		t.Fatalf("report missing wall-clock section:\n%s", rep)
	}
	if !strings.Contains(rep, "membus.bursts") {
		t.Fatalf("report missing other-counter section:\n%s", rep)
	}
}

// TestStallReportParallelScheduler: the work-stealing scheduler's
// counters render as their own report section — chunk/steal totals
// and the per-worker busy spread — and stay out of the generic
// listings.
func TestStallReportParallelScheduler(t *testing.T) {
	r := New(16)
	r.Counter("parallel.chunks", "events", "chunks executed").Add(8)
	r.Counter("parallel.steals", "events", "chunks stolen").Add(2)
	r.Counter("parallel.worker-busy[0]", "ns", "worker busy").Add(4_000_000)
	r.Counter("parallel.worker-busy[1]", "ns", "worker busy").Add(1_000_000)

	rep := r.StallReport()
	if !strings.Contains(rep, "Parallel scheduler (work-item chunks)") {
		t.Fatalf("report missing scheduler section:\n%s", rep)
	}
	if !strings.Contains(rep, "chunks executed: 8   stolen: 2 (25.0%)") {
		t.Fatalf("report missing chunk/steal line:\n%s", rep)
	}
	if !strings.Contains(rep, "worker busy spread: 1.000ms min .. 4.000ms max") {
		t.Fatalf("report missing busy spread:\n%s", rep)
	}
	if strings.Contains(rep, "Other counters") {
		t.Fatalf("scheduler counters leaked into the generic sections:\n%s", rep)
	}
}
