package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	decwi "github.com/decwi/decwi"
)

// testServer wires a scheduler into an httptest server and returns a
// cleanup that drains both.
func testServer(t *testing.T, cfg Config) (*httptest.Server, *Scheduler) {
	t.Helper()
	sched := New(cfg)
	ts := httptest.NewServer(NewServer(sched).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := sched.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return ts, sched
}

// postJob submits a spec and returns the response status plus decoded
// body (JobStatus on 2xx, errorBody otherwise).
func postJob(t *testing.T, ts *httptest.Server, path string, spec any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// runJobOverHTTP submits a spec, long-polls to terminal, and downloads
// the result payload.
func runJobOverHTTP(t *testing.T, ts *httptest.Server, path string, spec JobSpec) (JobStatus, []byte) {
	t.Helper()
	resp, body := postJob(t, ts, path, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit body: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never terminal (state %s)", st.ID, st.State)
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "?wait=2s")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status poll: %d: %s", r.StatusCode, b)
		}
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != StateDone {
		t.Fatalf("job %s ended %s (%s)", st.ID, st.State, st.Error)
	}
	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	payload, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", r.StatusCode, payload)
	}
	if got := r.Header.Get("X-Decwi-Sha256"); got != st.SHA256 {
		t.Fatalf("result digest header %q != status digest %q", got, st.SHA256)
	}
	if got := digest(payload); got != st.SHA256 {
		t.Fatalf("payload digest %s != advertised %s", got, st.SHA256)
	}
	return st, payload
}

// TestServerReplayDeterminism is the tentpole acceptance test: the same
// (config, seed, options) tuple submitted twice over HTTP returns
// bitwise-identical payloads, and those bytes equal the sequential
// Generate output — the engine's sequential-equivalence guarantee
// extended across the network boundary, for two Table I configs.
func TestServerReplayDeterminism(t *testing.T) {
	ts, _ := testServer(t, Config{Executors: 2})
	for _, cfg := range []int{2, 3} {
		t.Run(fmt.Sprintf("config%d", cfg), func(t *testing.T) {
			spec := JobSpec{
				Config: cfg, Seed: 7, Scenarios: 30000, Sectors: 2,
				Workers: 2, ChunkWorkItems: 1,
			}
			st1, p1 := runJobOverHTTP(t, ts, "/v1/generate", spec)
			st2, p2 := runJobOverHTTP(t, ts, "/v1/generate", spec)
			if st1.SHA256 != st2.SHA256 || !bytes.Equal(p1, p2) {
				t.Fatalf("replay diverged: %s vs %s", st1.SHA256, st2.SHA256)
			}
			// The replay was also a cache hit — the byte-equality above is
			// therefore exactly the cached-vs-fresh acceptance check.
			if !st2.Cached {
				t.Fatalf("second submission of the same tuple not served from the cache: %+v", st2)
			}
			seq, err := decwi.Generate(decwi.ConfigID(cfg), decwi.GenerateOptions{
				Scenarios: 30000, Sectors: 2, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := encodeFloat32LE(seq.Values); !bytes.Equal(p1, want) {
				t.Fatalf("served payload diverges from sequential Generate (%d vs %d bytes, digest %s vs %s)",
					len(p1), len(want), digest(p1), digest(want))
			}
		})
	}
}

// TestServerGoldenDigests pins the served bytes to history: two tuples
// of the repository's golden table (golden_test.go), submitted as job
// specs, and one risk job of the benchmark's risk shape (Config2, 5,000
// scenarios, 4 sectors, 100 obligors) must carry the committed digest in
// the X-Decwi-Sha256 header, in the status sha256 and in the SHA-256 of
// the body — both when the engine runs fresh and when the tuple is
// answered from the cache.
func TestServerGoldenDigests(t *testing.T) {
	ts, _ := testServer(t, Config{Executors: 1})
	golden := func(config int) JobSpec {
		return JobSpec{
			Config: config, Seed: 0x601DE7, Scenarios: 3001,
			Sectors: 3, Variances: []float64{0.5, 1.39, 4.0}, Workers: 1,
		}
	}
	for _, tc := range []struct {
		name string
		path string
		spec JobSpec
		want string
	}{
		{"Config1/BreakID0", "/v1/generate", golden(1), "200591d1c87aaca0b240b55af04a394989156695e9c3c3ceb79b7f5941e58b9a"},
		{"Config4/BreakID0", "/v1/generate", golden(4), "58584dd18d972adfd132419982e5bccc020ea412d48fa7bc7b3ec90b7f65d5d7"},
		{"Risk/Config2", "/v1/risk", JobSpec{
			Config: 2, Seed: 0x601DE7, Scenarios: 5000, Sectors: 4, Obligors: 100, Workers: 1,
		}, "1c430e53680179a82a75ae9d2e91de0fa7687f49b0b707dc17a5d0c9e13c55cf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, cached := range []bool{false, true} {
				// runJobOverHTTP checks that the header and the body digest
				// equal the status digest.
				st, _ := runJobOverHTTP(t, ts, tc.path, tc.spec)
				if st.Cached != cached {
					t.Fatalf("cached = %v, want %v", st.Cached, cached)
				}
				if st.SHA256 != tc.want {
					t.Fatalf("cached=%v: served digest %s, golden %s", cached, st.SHA256, tc.want)
				}
			}
		})
	}
}

// TestServerStreamOffsetReplay: the (seed, stream_offset) pair is the
// checkpoint tuple — a spec resubmitted with the saved offset replays
// exactly the later stream window, byte-identical to the library run at
// that offset and distinct from the offset-0 window.
func TestServerStreamOffsetReplay(t *testing.T) {
	ts, _ := testServer(t, Config{Executors: 1})
	spec := JobSpec{Config: 2, Seed: 7, Scenarios: 20000, Sectors: 2, Workers: 2}
	_, base := runJobOverHTTP(t, ts, "/v1/generate", spec)

	spec.StreamOffset = 4099
	st1, p1 := runJobOverHTTP(t, ts, "/v1/generate", spec)
	st2, p2 := runJobOverHTTP(t, ts, "/v1/generate", spec)
	if st1.SHA256 != st2.SHA256 || !bytes.Equal(p1, p2) {
		t.Fatalf("offset replay diverged: %s vs %s", st1.SHA256, st2.SHA256)
	}
	if bytes.Equal(p1, base) {
		t.Fatal("stream_offset=4099 returned the offset-0 window")
	}
	seq, err := decwi.Generate(decwi.Config2, decwi.GenerateOptions{
		Scenarios: 20000, Sectors: 2, Seed: 7, StreamOffset: 4099,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeFloat32LE(seq.Values); !bytes.Equal(p1, want) {
		t.Fatalf("served offset payload diverges from the library at the same offset (digest %s vs %s)",
			digest(p1), digest(want))
	}
}

// TestServerRiskReplay: a risk job is replayable too (same seeded
// Monte-Carlo → byte-identical report JSON), and the report carries the
// analytic cross-checks.
func TestServerRiskReplay(t *testing.T) {
	ts, _ := testServer(t, Config{Executors: 1})
	spec := JobSpec{Config: 2, Seed: 3, Scenarios: 400, Sectors: 2, Workers: 1, Obligors: 30}
	_, p1 := runJobOverHTTP(t, ts, "/v1/risk", spec)
	_, p2 := runJobOverHTTP(t, ts, "/v1/risk", spec)
	if !bytes.Equal(p1, p2) {
		t.Fatal("risk replay diverged")
	}
	var rep decwi.RiskReport
	if err := json.Unmarshal(p1, &rep); err != nil {
		t.Fatalf("risk payload is not a RiskReport: %v", err)
	}
	if rep.Scenarios != 400 || rep.AnalyticEL <= 0 || rep.VaR999 <= 0 {
		t.Fatalf("implausible risk report: %+v", rep)
	}
}

// TestServerValidationErrors mirrors options_test.go through the
// network path: every malformed scheduling knob or workload must come
// back as a clean 400 with a JSON error body — never a panic, never a
// silently clamped replay tuple.
func TestServerValidationErrors(t *testing.T) {
	ts, _ := testServer(t, Config{})
	base := func() map[string]any {
		return map[string]any{"config": 3, "scenarios": 1000, "workers": 1}
	}
	for _, tc := range []struct {
		name string
		path string
		edit func(m map[string]any)
		want string // error substring
	}{
		{"zero workers", "/v1/generate", func(m map[string]any) { m["workers"] = 0 }, "workers 0"},
		{"negative workers", "/v1/generate", func(m map[string]any) { m["workers"] = -3 }, "workers -3"},
		{"workers beyond cap", "/v1/generate", func(m map[string]any) { m["workers"] = 64 }, "per-job cap"},
		{"shards beyond work-items", "/v1/generate", func(m map[string]any) { m["shards"] = 9 }, "shards 9 exceeds"},
		{"negative shards", "/v1/generate", func(m map[string]any) { m["shards"] = -1 }, "shards -1"},
		{"oversized chunk", "/v1/generate", func(m map[string]any) { m["chunk_work_items"] = 99 }, "chunk_work_items 99"},
		{"negative chunk", "/v1/generate", func(m map[string]any) { m["chunk_work_items"] = -2 }, "chunk_work_items -2"},
		{"unknown config", "/v1/generate", func(m map[string]any) { m["config"] = 9 }, "config 9"},
		{"zero scenarios", "/v1/generate", func(m map[string]any) { m["scenarios"] = 0 }, "scenarios 0"},
		{"oversized workload", "/v1/generate", func(m map[string]any) { m["scenarios"] = int64(1) << 40 }, "server cap"},
		{"overflowing workload", "/v1/generate", func(m map[string]any) {
			// scenarios·sectors wraps int64 to 0; the cap check must
			// reject on the pre-multiplication values, not the wrap.
			m["scenarios"] = int64(1) << 62
			m["sectors"] = 4
		}, "server cap"},
		{"negative sectors", "/v1/generate", func(m map[string]any) { m["sectors"] = -2 }, "sectors -2"},
		{"variances mismatch", "/v1/generate", func(m map[string]any) { m["variances"] = []float64{1, 2, 3} }, "variances has 3"},
		{"non-finite variance", "/v1/generate", func(m map[string]any) { m["variance"] = -1.0 }, "variance -1"},
		{"bad tenant", "/v1/generate", func(m map[string]any) { m["tenant"] = "Tenant!" }, "tenant"},
		{"negative timeout", "/v1/generate", func(m map[string]any) { m["timeout_ms"] = -5 }, "timeout_ms -5"},
		{"unknown field", "/v1/generate", func(m map[string]any) { m["wrokers"] = 2 }, "unknown field"},
		{"kind mismatch", "/v1/risk", func(m map[string]any) { m["kind"] = "generate" }, "does not match"},
		{"risk with variances", "/v1/risk", func(m map[string]any) {
			m["sectors"] = 2
			m["variances"] = []float64{1, 2}
		}, "scalar variance"},
		{"risk bad pd", "/v1/risk", func(m map[string]any) { m["pd"] = 1.5 }, "pd 1.5"},
		{"risk with stream offset", "/v1/risk", func(m map[string]any) { m["stream_offset"] = 4099 }, "stream_offset"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.edit(m)
			resp, body := postJob(t, ts, tc.path, m)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", resp.StatusCode, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if !strings.Contains(eb.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", eb.Error, tc.want)
			}
		})
	}
}

// TestServerBackpressure: a saturated queue answers 429 with a
// Retry-After hint; a draining scheduler answers 503.
func TestServerBackpressure(t *testing.T) {
	hook, release := parkedHook()
	ts, sched := testServer(t, Config{Executors: 1, QueueDepth: 1, runHook: hook})
	defer release()

	// First job parks in the executor, second fills the queue. Wait for
	// the executor to claim the first before filling the queue, or the
	// second submission would race against the dequeue.
	resp1, body1 := postJob(t, ts, "/v1/generate", seeded(1))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", resp1.StatusCode, body1)
	}
	var first JobStatus
	if err := json.Unmarshal(body1, &first); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sched.Get(first.ID).Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, body := postJob(t, ts, "/v1/generate", seeded(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: %d %s", resp.StatusCode, body)
	}
	resp, body := postJob(t, ts, "/v1/generate", seeded(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	go sched.Drain(context.Background())
	for !sched.Draining() {
		time.Sleep(time.Millisecond)
	}
	resp, body = postJob(t, ts, "/v1/generate", seeded(4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	release()
}

// TestServerJobLifecycle: unknown IDs 404, a running job's result is
// 202, DELETE cancels it (result becomes 409), and a second DELETE
// evicts the record (404 afterwards).
func TestServerJobLifecycle(t *testing.T) {
	hook, release := parkedHook()
	ts, _ := testServer(t, Config{Executors: 1, runHook: hook})
	defer release()

	if r, err := http.Get(ts.URL + "/v1/jobs/j-00009999"); err != nil || r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status: %v %v", r.StatusCode, err)
	}

	resp, body := postJob(t, ts, "/v1/generate", genSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location %q", loc)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("result of live job: %d, want 202", r.StatusCode)
	}

	del := func() int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(); code != http.StatusNoContent {
		t.Fatalf("cancel DELETE: %d", code)
	}
	// Long-poll until the cancellation lands, then the result is gone.
	r, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "?wait=5s")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state %s after cancel", st.State)
	}
	r, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: %d, want 409", r.StatusCode)
	}
	if code := del(); code != http.StatusNoContent {
		t.Fatalf("evict DELETE: %d", code)
	}
	if r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID); err != nil || r.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job status: %v %v", r.StatusCode, err)
	}
}

// TestServerResultDigestStability: X-Decwi-Sha256 is fixed once at job
// completion and only echoed by downloads — repeated GETs of one result
// must carry the identical header, matching both the status digest and
// the actual body bytes every time. (The header used to be re-hashed
// from the payload on every download.)
func TestServerResultDigestStability(t *testing.T) {
	ts, _ := testServer(t, Config{Executors: 1})
	spec := JobSpec{Config: 2, Seed: 13, Scenarios: 25000, Sectors: 2, Workers: 2}
	st, first := runJobOverHTTP(t, ts, "/v1/generate", spec)
	for i := 0; i < 3; i++ {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Header.Get("X-Decwi-Sha256"); got != st.SHA256 {
			t.Fatalf("download %d header %s != completion digest %s", i, got, st.SHA256)
		}
		if !bytes.Equal(body, first) {
			t.Fatalf("download %d body diverged", i)
		}
		if got := digest(body); got != st.SHA256 {
			t.Fatalf("download %d body digest %s != header %s", i, got, st.SHA256)
		}
	}
}

// TestServerDrainUnderRealLoad is the end-to-end drain acceptance test
// with real engine jobs (no hook): drain with jobs in flight completes
// every admitted job and leaks nothing.
func TestServerDrainUnderRealLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	sched := New(Config{Executors: 2, QueueDepth: 32})
	ts := httptest.NewServer(NewServer(sched).Handler())

	var ids []string
	for i := 0; i < 8; i++ {
		spec := JobSpec{Config: 2, Seed: uint64(i + 1), Scenarios: 20000, Workers: 1}
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, b)
		}
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sched.Drain(ctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	for _, id := range ids {
		j := sched.Get(id)
		if j == nil {
			t.Fatalf("job %s evicted before inspection", id)
		}
		if st := j.Status(); st.State != StateDone {
			t.Errorf("job %s ended %s (%s), want done", id, st.State, st.Error)
		}
	}
	ts.Close()
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 100 {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
