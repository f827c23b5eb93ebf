package telemetry

import (
	"strings"
	"testing"
)

// populateReport builds a recorder whose report exercises every section,
// including a total tie in the cycle ranking (the tie-break must fall
// back to name order for the output to be reproducible).
func populateReport(r *Recorder) {
	r.Counter("engine.cycles[0]", "cycles", "").Add(1000)
	r.Counter("engine.accepted[0]", "cycles", "").Add(800)
	r.Counter("rejection.gamma-loop[0]", "cycles", "gamma rejection loop").Add(50)
	r.Counter("rejection.normal-transform[0]", "cycles", "normal transform retries").Add(50)
	r.Counter("stream.gamma[0].push-block", "ns", "stream backpressure").Add(2_000_000)
	r.Counter("membus.bursts", "events", "memory bursts").Add(12)
	r.Counter("queue.commands", "events", "commands enqueued").Add(12)
	r.Gauge("stream.gamma[0].occupancy", "values", "FIFO fill level").Set(17)
	r.Gauge("cosim.memq-depth", "events", "memory queue depth").Set(3)
	h := r.Histogram("parallel.chunk-service-us", "us", "chunk service time")
	for _, v := range []int64{3, 5, 9, 200} {
		h.Record(v)
	}
	r.Histogram("cosim.burst-size", "values", "values per burst").Record(64)
}

// TestStallReportDeterministic pins the regression the live metrics
// plane depends on: rendering the same recorder twice is byte-identical,
// groups tied on total rank in name order, and the new Gauges /
// Distributions sections render sorted by name.
func TestStallReportDeterministic(t *testing.T) {
	r := New(16)
	populateReport(r)

	rep := r.StallReport()
	for i := 0; i < 10; i++ {
		if again := r.StallReport(); again != rep {
			t.Fatalf("render %d differs from first render:\n--- first\n%s\n--- again\n%s", i, rep, again)
		}
	}

	// Tie at 50 cycles: gamma-loop before normal-transform (name order).
	gi := strings.Index(rep, "rejection.gamma-loop")
	ni := strings.Index(rep, "rejection.normal-transform")
	if gi < 0 || ni < 0 || gi > ni {
		t.Fatalf("tied cycle groups not in name order (gamma at %d, normal at %d):\n%s", gi, ni, rep)
	}
	// "Other counters" tie at 12: membus.bursts before queue.commands.
	mi := strings.Index(rep, "membus.bursts")
	qi := strings.Index(rep, "queue.commands")
	if mi < 0 || qi < 0 || mi > qi {
		t.Fatalf("tied other-counter groups not in name order (membus at %d, queue at %d):\n%s", mi, qi, rep)
	}

	// Golden section shapes: gauges and distributions sorted by name.
	wantGauges := "Gauges (level at report time)\n" +
		"  cosim.memq-depth                                              3 events\n" +
		"  stream.gamma[0].occupancy                                    17 values\n"
	if !strings.Contains(rep, wantGauges) {
		t.Fatalf("report missing sorted gauge section\n--- want\n%s\n--- got\n%s", wantGauges, rep)
	}
	wantDists := "Distributions (quantiles over power-of-two buckets)\n" +
		"  name                                              count      p50      p90      p99      max\n" +
		"  cosim.burst-size                                      1       64       64       64       64 values\n" +
		"  parallel.chunk-service-us                             4        8      200      200      200 us\n"
	if !strings.Contains(rep, wantDists) {
		t.Fatalf("report missing sorted distribution section\n--- want\n%s\n--- got\n%s", wantDists, rep)
	}
}
