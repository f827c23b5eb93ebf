package metricsrv

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/decwi/decwi/internal/telemetry"
)

// TestCheckSnapshotRoundTrip: what the server's own /snapshot handler
// emits must pass the checker — on the first scrape (delta == value)
// and on a quiescent second scrape (delta == 0).
func TestCheckSnapshotRoundTrip(t *testing.T) {
	rec := telemetry.New(0)
	rec.Counter("roundtrip.jobs", "events", "test counter").Add(7)
	rec.Gauge("roundtrip.depth", "events", "test gauge").Set(3)
	h := rec.Histogram("roundtrip.wait-us", "us", "test histogram")
	h.Record(10)
	h.Record(2000)

	srv, err := New(rec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	scrape := func() []byte {
		resp, err := ts.Client().Get(ts.URL + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for i := 0; i < 2; i++ {
		c, g, hs, err := CheckSnapshot(scrape())
		if err != nil {
			t.Fatalf("scrape %d rejected: %v", i, err)
		}
		if c != 1 || g != 1 || hs != 1 {
			t.Fatalf("scrape %d counted %d/%d/%d instruments, want 1/1/1", i, c, g, hs)
		}
	}
}

// TestCheckSnapshotRejects pins the failure modes the smoke gate must
// catch: malformed JSON, unknown fields, trailing data, negative
// deltas, and disordered quantiles.
func TestCheckSnapshotRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		body string
		want string
	}{
		{"not json", `{"counters": [`, "not well-formed"},
		{"unknown field", `{"counters": [], "gauges": [], "histograms": [], "extra": 1}`, "unknown field"},
		{"trailing data", `{"counters": [], "gauges": [], "histograms": []} {"x":1}`, "trailing data"},
		{"trailing close brace", `{"counters": [], "gauges": [], "histograms": []} }`, "trailing data"},
		{"trailing close bracket", `{"counters": [], "gauges": [], "histograms": []}]`, "trailing data"},
		{"negative delta", `{"counters": [{"name": "c", "value": 5, "delta": -1}], "gauges": [], "histograms": []}`, "negative delta"},
		{"negative value", `{"counters": [{"name": "c", "value": -5, "delta": 0}], "gauges": [], "histograms": []}`, "negative value"},
		{"unnamed counter", `{"counters": [{"name": "", "value": 1, "delta": 1}], "gauges": [], "histograms": []}`, "empty name"},
		{"disordered quantiles", `{"counters": [], "gauges": [], "histograms": [{"name": "h", "count": 3, "sum": 9, "max": 9, "p50": 8, "p90": 4, "p99": 9}]}`, "out of order"},
		{"phantom sum", `{"counters": [], "gauges": [], "histograms": [{"name": "h", "count": 0, "sum": 9, "max": 0, "p50": 0, "p90": 0, "p99": 0}]}`, "empty but"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := CheckSnapshot([]byte(tc.body))
			if err == nil {
				t.Fatal("checker accepted a malformed snapshot")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
