package metricsrv

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/decwi/decwi/internal/telemetry"
)

// populate registers one instrument of every type with known values.
func populate(rec *telemetry.Recorder) {
	rec.Counter("engine.cycles[0]", "cycles", "total pipeline iterations").Add(1000)
	rec.Counter("engine.cycles[1]", "cycles", "total pipeline iterations").Add(1200)
	rec.Counter("parallel.chunks", "events", "chunks executed").Add(8)
	rec.Gauge("stream.gamma[0].occupancy", "values", "FIFO occupancy").Set(17)
	h := rec.Histogram("parallel.chunk-service-us", "us", "chunk service time")
	for _, v := range []int64{3, 5, 9, 200, 7000} {
		h.Record(v)
	}
}

func TestPromNameMangling(t *testing.T) {
	cases := []struct {
		in, name, instance string
	}{
		{"parallel.chunks", "decwi_parallel_chunks", ""},
		{"engine.cycles[3]", "decwi_engine_cycles", "3"},
		{"stream.gamma[0].push", "decwi_stream_gamma_push", "0"},
		{"parallel.imbalance-x1000", "decwi_parallel_imbalance_x1000", ""},
		{"rng.gamma.trips[marsaglia-bray]", "decwi_rng_gamma_trips", "marsaglia-bray"},
	}
	for _, c := range cases {
		name, inst := promName(c.in)
		if name != c.name || inst != c.instance {
			t.Errorf("promName(%q) = (%q, %q), want (%q, %q)", c.in, name, inst, c.name, c.instance)
		}
	}
}

func TestWriteExpositionShapeAndChecker(t *testing.T) {
	rec := telemetry.New(64)
	populate(rec)
	var b strings.Builder
	if err := WriteExposition(&b, rec); err != nil {
		t.Fatal(err)
	}
	body := b.String()

	for _, want := range []string{
		"# HELP decwi_engine_cycles total pipeline iterations [cycles]\n",
		"# TYPE decwi_engine_cycles counter\n",
		`decwi_engine_cycles{instance="0"} 1000` + "\n",
		`decwi_engine_cycles{instance="1"} 1200` + "\n",
		"# TYPE decwi_stream_gamma_occupancy gauge\n",
		`decwi_stream_gamma_occupancy{instance="0"} 17` + "\n",
		"# TYPE decwi_parallel_chunk_service_us histogram\n",
		`decwi_parallel_chunk_service_us_bucket{le="4"} 1` + "\n",
		`decwi_parallel_chunk_service_us_bucket{le="+Inf"} 5` + "\n",
		"decwi_parallel_chunk_service_us_sum 7217\n",
		"decwi_parallel_chunk_service_us_count 5\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, body)
		}
	}
	// The family HELP/TYPE header must appear exactly once despite two
	// instance rows.
	if n := strings.Count(body, "# TYPE decwi_engine_cycles counter"); n != 1 {
		t.Errorf("engine.cycles TYPE emitted %d times", n)
	}

	counters, gauges, hists, err := CheckExposition(body)
	if err != nil {
		t.Fatalf("CheckExposition: %v\n---\n%s", err, body)
	}
	if counters < 2 || gauges < 1 || hists < 1 {
		t.Fatalf("family counts = (%d, %d, %d), want ≥ (2, 1, 1)", counters, gauges, hists)
	}

	// Determinism over a frozen recorder.
	var b2 strings.Builder
	if err := WriteExposition(&b2, rec); err != nil {
		t.Fatal(err)
	}
	if b2.String() != body {
		t.Fatal("exposition of a frozen recorder is not byte-identical across calls")
	}
}

func TestCheckExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without type": "decwi_x 3\n",
		"type without help":   "# TYPE decwi_x counter\ndecwi_x 3\n",
		"decreasing buckets": "# HELP decwi_h h\n# TYPE decwi_h histogram\n" +
			`decwi_h_bucket{le="1"} 5` + "\n" + `decwi_h_bucket{le="2"} 3` + "\n" +
			`decwi_h_bucket{le="+Inf"} 3` + "\ndecwi_h_sum 9\ndecwi_h_count 3\n",
		"inf != count": "# HELP decwi_h h\n# TYPE decwi_h histogram\n" +
			`decwi_h_bucket{le="+Inf"} 3` + "\ndecwi_h_sum 9\ndecwi_h_count 4\n",
	}
	for name, body := range cases {
		if _, _, _, err := CheckExposition(body); err == nil {
			t.Errorf("%s: checker accepted malformed exposition", name)
		}
	}
}

func TestEndpoints(t *testing.T) {
	rec := telemetry.New(64)
	populate(rec)
	srv, err := New(rec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 {
		t.Fatalf("/metrics = %d", code)
	} else if _, _, _, err := CheckExposition(body); err != nil {
		t.Fatalf("/metrics body invalid: %v", err)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}

	// /snapshot deltas: first scrape delta == value, second scrape sees
	// only the increase in between.
	var snap1, snap2 struct {
		Counters []struct {
			Name         string
			Value, Delta int64
		}
	}
	_, body := get("/snapshot")
	if err := json.Unmarshal([]byte(body), &snap1); err != nil {
		t.Fatalf("/snapshot JSON: %v", err)
	}
	rec.Counter("parallel.chunks", "events", "chunks executed").Add(4)
	_, body = get("/snapshot")
	if err := json.Unmarshal([]byte(body), &snap2); err != nil {
		t.Fatalf("/snapshot JSON: %v", err)
	}
	find := func(s []struct {
		Name         string
		Value, Delta int64
	}, name string) (int64, int64) {
		for _, c := range s {
			if c.Name == name {
				return c.Value, c.Delta
			}
		}
		t.Fatalf("counter %s missing from snapshot", name)
		return 0, 0
	}
	if v, d := find(snap1.Counters, "parallel.chunks"); v != 8 || d != 8 {
		t.Fatalf("first scrape: value %d delta %d, want 8/8", v, d)
	}
	if v, d := find(snap2.Counters, "parallel.chunks"); v != 12 || d != 4 {
		t.Fatalf("second scrape: value %d delta %d, want 12/4", v, d)
	}
}

// TestServeCloseNoLeak is the satellite bugfix assertion: Serve binds,
// serves real requests, and Close joins every goroutine the server
// started — using the leak-test pattern from the parallel scheduler's
// cancellation test.
func TestServeCloseNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	rec := telemetry.New(64)
	populate(rec)
	srv, err := New(rec)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics on live server: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, _, _, err := CheckExposition(string(body)); err != nil {
		t.Fatalf("live /metrics invalid: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Close")
	}

	// The HTTP client keeps idle connections; drop them before counting.
	http.DefaultClient.CloseIdleConnections()
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

func TestNewRejectsNilRecorder(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) must fail")
	}
}

// TestHealthAndSLOHooks: an installed health hook can degrade /healthz
// to 503 with a reason (and restore it), and a SetSLO hook's value is
// embedded in /snapshot under "slo" — nil return omits the key.
func TestHealthAndSLOHooks(t *testing.T) {
	rec := telemetry.New(0)
	populate(rec)
	srv, err := New(rec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	srv.SetHealth(func() (bool, string) { return false, "latency burn 12.0x" })
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable ||
		body != "degraded: latency burn 12.0x\n" {
		t.Fatalf("degraded /healthz = %d %q", code, body)
	}
	srv.SetHealth(func() (bool, string) { return true, "" })
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("recovered /healthz = %d %q", code, body)
	}
	srv.SetHealth(nil)
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("hook-less /healthz = %d %q", code, body)
	}

	// SLO embedding: the hook's value lands under "slo" and the body
	// still satisfies the strict snapshot checker.
	srv.SetSLO(func() any {
		return map[string]any{"name": "serve-latency", "degraded": true}
	})
	code, body := get("/snapshot")
	if code != 200 {
		t.Fatalf("/snapshot = %d", code)
	}
	if _, _, _, err := CheckSnapshot([]byte(body)); err != nil {
		t.Fatalf("snapshot with slo invalid: %v", err)
	}
	var withSLO struct {
		SLO map[string]any `json:"slo"`
	}
	if err := json.Unmarshal([]byte(body), &withSLO); err != nil {
		t.Fatal(err)
	}
	if withSLO.SLO["name"] != "serve-latency" {
		t.Fatalf("snapshot slo = %v", withSLO.SLO)
	}

	// A nil-returning hook omits the key entirely.
	srv.SetSLO(func() any { return nil })
	_, body = get("/snapshot")
	if strings.Contains(body, "\"slo\"") {
		t.Fatalf("nil SLO hook still embedded: %s", body)
	}
}
