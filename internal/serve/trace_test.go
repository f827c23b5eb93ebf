package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	ftrace "github.com/decwi/decwi/internal/telemetry/flight"
)

// traceCfg returns a Config with an attached flight recorder sized for
// tests.
func traceCfg(cfg Config) Config {
	cfg.Flight = ftrace.New(64, 16, 250*time.Millisecond)
	return cfg
}

// tparent builds a valid W3C traceparent carrying the given trace id.
const testTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

func tparent(traceID string) string {
	return "00-" + traceID + "-00f067aa0ba902b7-01"
}

// jobTrace fetches (and schema-checks) the job's trace from the
// scheduler's flight recorder.
func jobTrace(t *testing.T, s *Scheduler, id string) ftrace.TraceJSON {
	t.Helper()
	tj, ok := s.FlightRecorder().Get(id)
	if !ok {
		t.Fatalf("trace for %s not retained", id)
	}
	body, err := json.Marshal(tj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ftrace.CheckTraceJSON(body); err != nil {
		t.Fatalf("trace %s fails validation: %v", id, err)
	}
	return tj
}

// spanNames collects the trace's span names into a set.
func spanNames(tj ftrace.TraceJSON) map[string]int {
	names := map[string]int{}
	for _, sp := range tj.Spans {
		names[sp.Name]++
	}
	return names
}

// TestTraceQueuedLaneSpanTree: a traceparent-carrying submission on the
// plain queued lane produces a complete, validation-clean span tree —
// admission spans, queue wait, the engine run with per-chunk spans from
// the parallel scheduler, and the digest — under the client's trace id.
func TestTraceQueuedLaneSpanTree(t *testing.T) {
	s := New(traceCfg(Config{Executors: 1}))
	defer s.Drain(context.Background())

	spec := genSpec()
	spec.Seed = 71
	j, err := s.SubmitTraced(spec, tparent(testTraceID))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.TraceID != testTraceID {
		t.Fatalf("status trace id %q, want adopted %q", st.TraceID, testTraceID)
	}
	if st.Lane != "queued" {
		t.Fatalf("lane %q, want queued", st.Lane)
	}

	tj := jobTrace(t, s, j.ID)
	if tj.TraceID != testTraceID || tj.State != "done" || tj.Lane != "queued" {
		t.Fatalf("trace header %s/%s/%s, want %s/done/queued", tj.TraceID, tj.State, tj.Lane, testTraceID)
	}
	names := spanNames(tj)
	for _, want := range []string{"job", "validate", "cache-lookup", "quota", "enqueue", "queue-wait", "engine-run", "digest"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from queued-lane trace (have %v)", want, names)
		}
	}
	if names["chunk[0]"] == 0 {
		t.Errorf("no chunk[0] span — engine run not linked to per-chunk execution (have %v)", names)
	}
	// The engine-run span must parent the chunk spans.
	var runID ftrace.SpanID
	for _, sp := range tj.Spans {
		if sp.Name == "engine-run" {
			runID = sp.ID
		}
	}
	for _, sp := range tj.Spans {
		if sp.Name == "chunk[0]" && sp.Parent != runID {
			t.Errorf("chunk[0] parent %d, want engine-run %d", sp.Parent, runID)
		}
	}
	if tj.DurationUS < 0 {
		t.Fatalf("finished trace has live duration %d", tj.DurationUS)
	}
}

// TestTraceCacheHitLane: the second identical submission is answered
// from the result cache; its trace records the hit and never reaches
// the engine.
func TestTraceCacheHitLane(t *testing.T) {
	s := New(traceCfg(Config{Executors: 1,
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			return []byte("bytes"), &execMeta{}, nil
		}}))
	defer s.Drain(context.Background())

	j1, err := s.SubmitTraced(seeded(42), "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	j2, err := s.SubmitTraced(seeded(42), "")
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j2)
	if !st.Cached || st.Lane != "cache-hit" {
		t.Fatalf("second submission cached=%v lane=%q, want true/cache-hit", st.Cached, st.Lane)
	}
	tj := jobTrace(t, s, j2.ID)
	names := spanNames(tj)
	if names["cache-lookup"] == 0 {
		t.Fatalf("cache-hit trace lacks cache-lookup span: %v", names)
	}
	if names["engine-run"] != 0 || names["queue-wait"] != 0 {
		t.Fatalf("cache-hit trace ran the engine: %v", names)
	}
	if tj.Lane != "cache-hit" || tj.State != "done" {
		t.Fatalf("trace lane/state %s/%s, want cache-hit/done", tj.Lane, tj.State)
	}
}

// TestTraceCoalescedLane: a submission that coalesces onto a running
// identical flight records the dedup decision, its wait on the shared
// run, and a root-level copy of the leader's engine-run span.
func TestTraceCoalescedLane(t *testing.T) {
	hook, release := parkedHook()
	s := New(traceCfg(Config{Executors: 1, CacheBytes: -1, runHook: hook}))
	defer s.Drain(context.Background())

	leader, err := s.SubmitTraced(seeded(42), "")
	if err != nil {
		t.Fatal(err)
	}
	follower, err := s.SubmitTraced(seeded(42), "")
	if err != nil {
		t.Fatal(err)
	}
	release()
	waitTerminal(t, leader)
	fst := waitTerminal(t, follower)
	if !fst.Coalesced || fst.Lane != "coalesced" {
		t.Fatalf("follower coalesced=%v lane=%q, want true/coalesced", fst.Coalesced, fst.Lane)
	}

	ftj := jobTrace(t, s, follower.ID)
	names := spanNames(ftj)
	for _, want := range []string{"dedup", "shared-run-wait", "engine-run"} {
		if names[want] == 0 {
			t.Errorf("coalesced trace lacks %q span: %v", want, names)
		}
	}
	for _, sp := range ftj.Spans {
		if sp.Name == "engine-run" {
			if sp.Parent != 0 {
				t.Errorf("coalesced engine-run parent %d, want root-level 0", sp.Parent)
			}
			if want := "shared with " + leader.ID; sp.Detail != want {
				t.Errorf("coalesced engine-run detail %q, want %q", sp.Detail, want)
			}
		}
	}
	// The leader's own trace owns the real engine-run under its job span.
	ltj := jobTrace(t, s, leader.ID)
	lnames := spanNames(ltj)
	if lnames["engine-run"] == 0 {
		t.Fatalf("leader trace lacks engine-run: %v", lnames)
	}
}

// TestTraceRejectedSubmission: a validation reject still leaves a
// finished, pinned trace behind (failed jobs are pinned).
func TestTraceRejectedSubmission(t *testing.T) {
	s := New(traceCfg(Config{Executors: 1}))
	defer s.Drain(context.Background())

	bad := genSpec()
	bad.Scenarios = -5
	if _, err := s.SubmitTraced(bad, tparent(testTraceID)); err == nil {
		t.Fatal("invalid spec admitted")
	}
	tj, ok := s.FlightRecorder().Get(testTraceID)
	if !ok {
		t.Fatal("rejected submission left no trace")
	}
	if tj.State != "rejected" {
		t.Fatalf("rejected trace state %q", tj.State)
	}
	names := spanNames(tj)
	if names["validate"] == 0 {
		t.Fatalf("rejected trace lacks validate span: %v", names)
	}
}

// TestTracephaseTimestamps: the status carries monotone per-phase wall
// timestamps once the job is terminal.
func TestTracePhaseTimestamps(t *testing.T) {
	s := New(traceCfg(Config{Executors: 1,
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			return []byte("x"), &execMeta{}, nil
		}}))
	defer s.Drain(context.Background())

	j, err := s.SubmitTraced(seeded(7), "")
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.AdmittedUnixUS <= 0 {
		t.Fatalf("admitted timestamp %d", st.AdmittedUnixUS)
	}
	if st.StartedUnixUS < st.AdmittedUnixUS {
		t.Fatalf("started %d before admitted %d", st.StartedUnixUS, st.AdmittedUnixUS)
	}
	if st.FinishedUnixUS < st.StartedUnixUS {
		t.Fatalf("finished %d before started %d", st.FinishedUnixUS, st.StartedUnixUS)
	}
}

// TestTracingOffNoop: without a flight recorder every trace operation
// is a nil-receiver no-op — jobs run normally and expose no trace id.
func TestTracingOffNoop(t *testing.T) {
	s := New(Config{Executors: 1,
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			return []byte("x"), &execMeta{}, nil
		}})
	defer s.Drain(context.Background())

	j, err := s.SubmitTraced(seeded(7), tparent(testTraceID))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("untraced job ended %s", st.State)
	}
	if st.TraceID != "" || st.Lane == "" {
		// Lane is still reported (it is admission metadata, not tracing).
		t.Fatalf("untraced status trace=%q lane=%q", st.TraceID, st.Lane)
	}
	if s.FlightRecorder() != nil {
		t.Fatal("recorder present with tracing off")
	}
}

// TestDebugJobsHTTP: the /debug endpoints serve a valid listing and
// complete span trees addressable by job id and by trace id; unknown
// ids 404; a recorder-less server 404s the whole surface.
func TestDebugJobsHTTP(t *testing.T) {
	ts, sched := testServer(t, traceCfg(Config{Executors: 2}))
	var ids []string
	for i := 0; i < 3; i++ {
		spec := genSpec()
		spec.Seed = uint64(100 + i)
		st, _ := runJobOverHTTP(t, ts, "/v1/generate", spec)
		ids = append(ids, st.ID)
		if st.TraceID == "" {
			t.Fatalf("job %s has no trace id", st.ID)
		}
	}

	body := getBody(t, ts.URL+"/debug/jobs", http.StatusOK)
	n, err := ftrace.CheckJobsJSON(body)
	if err != nil {
		t.Fatalf("/debug/jobs invalid: %v", err)
	}
	if n < 3 {
		t.Fatalf("listing has %d traces, want ≥ 3", n)
	}

	// Addressable by job id and by trace id, identical content.
	byJob := getBody(t, ts.URL+"/debug/jobs/"+ids[0], http.StatusOK)
	if _, err := ftrace.CheckTraceJSON(byJob); err != nil {
		t.Fatalf("trace by job id invalid: %v", err)
	}
	var tj ftrace.TraceJSON
	if err := json.Unmarshal(byJob, &tj); err != nil {
		t.Fatal(err)
	}
	byTrace := getBody(t, ts.URL+"/debug/jobs/"+tj.TraceID, http.StatusOK)
	if _, err := ftrace.CheckTraceJSON(byTrace); err != nil {
		t.Fatalf("trace by trace id invalid: %v", err)
	}
	// The status endpoint's trace id keys the same trace.
	if sched.FlightRecorder() == nil {
		t.Fatal("scheduler lost its recorder")
	}
	getBody(t, ts.URL+"/debug/jobs/no-such-id", http.StatusNotFound)

	// Tracing off: the endpoints answer 404, signalling the disabled
	// surface rather than an empty listing.
	tsOff, _ := testServer(t, Config{Executors: 1,
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			return []byte("x"), &execMeta{}, nil
		}})
	getBody(t, tsOff.URL+"/debug/jobs", http.StatusNotFound)
	getBody(t, tsOff.URL+"/debug/jobs/whatever", http.StatusNotFound)
}

// getBody asserts the status code and returns the response body.
func getBody(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, b)
	}
	return b
}

// TestTraceConcurrentSubmitAndDebugReads hammers /debug/jobs and
// per-trace fetches while jobs churn through submission — the recorder
// and the HTTP surface must stay consistent under the race detector.
func TestTraceConcurrentSubmitAndDebugReads(t *testing.T) {
	ts, _ := testServer(t, traceCfg(Config{Executors: 2,
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			return []byte("payload"), &execMeta{}, nil
		}}))

	const jobs = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/debug/jobs")
				if err != nil {
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/debug/jobs status %d", resp.StatusCode)
					return
				}
				if _, err := ftrace.CheckJobsJSON(body); err != nil {
					t.Errorf("listing invalid under churn: %v", err)
					return
				}
				var listing ftrace.JobsJSON
				if json.Unmarshal(body, &listing) == nil && len(listing.Jobs) > 0 {
					// Fetch the newest trace too: live traces must also
					// serve a consistent snapshot.
					r2, err := http.Get(ts.URL + "/debug/jobs/" + listing.Jobs[0].TraceID)
					if err == nil {
						b2, _ := io.ReadAll(r2.Body)
						r2.Body.Close()
						if r2.StatusCode == http.StatusOK {
							if _, err := ftrace.CheckTraceJSON(b2); err != nil {
								t.Errorf("trace invalid under churn: %v", err)
								return
							}
						}
					}
				}
			}
		}()
	}
	var sub sync.WaitGroup
	for w := 0; w < 4; w++ {
		sub.Add(1)
		go func(w int) {
			defer sub.Done()
			for i := 0; i < jobs/4; i++ {
				spec := genSpec()
				spec.Seed = uint64(1000 + w*100 + i)
				st, _ := runJobOverHTTP(t, ts, "/v1/generate", spec)
				if st.State != StateDone {
					t.Errorf("job %s ended %s", st.ID, st.State)
				}
			}
		}(w)
	}
	sub.Wait()
	close(stop)
	wg.Wait()
}

// TestSLODegradationAndRecovery: with an injected slow executor and a
// microscopic latency objective every job burns budget, both windows
// light up, and /healthz-facing hooks report degraded; a generous
// objective stays healthy.
func TestSLODegradationAndRecovery(t *testing.T) {
	quick := func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
		return []byte("x"), &execMeta{}, nil
	}

	// CacheBytes -1: a cache hit completes in ~0ns and would count good
	// (seed 0 normalizes to 1, aliasing the first two tuples).
	slow := New(Config{Executors: 1, SLOLatency: 1, CacheBytes: -1, // 1ns: everything is too slow
		ExecDelay: time.Millisecond, runHook: quick})
	defer slow.Drain(context.Background())
	for i := 0; i < 4; i++ {
		j, err := slow.Submit(seeded(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}
	st := slow.SLOStatus()
	if !st.Degraded {
		t.Fatalf("SLO not degraded after 4 over-budget jobs: %+v", st)
	}
	if st.Bad != 4 || st.Good != 0 {
		t.Fatalf("SLO counts good=%d bad=%d, want 0/4", st.Good, st.Bad)
	}
	if ok, reason := slow.SLOHealth(); ok || reason == "" {
		t.Fatalf("SLOHealth ok=%v reason=%q, want degraded with reason", ok, reason)
	}

	healthy := New(Config{Executors: 1, SLOLatency: 10 * time.Second, runHook: quick})
	defer healthy.Drain(context.Background())
	for i := 0; i < 4; i++ {
		j, err := healthy.Submit(seeded(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}
	if st := healthy.SLOStatus(); st.Degraded || st.Good != 4 {
		t.Fatalf("healthy scheduler degraded: %+v", st)
	}
	if ok, _ := healthy.SLOHealth(); !ok {
		t.Fatal("healthy scheduler reports unhealthy")
	}

	// SLO plane off: zero Status, always healthy.
	off := New(Config{Executors: 1, SLOLatency: -1, runHook: quick})
	defer off.Drain(context.Background())
	if st := off.SLOStatus(); st.Name != "" || st.Degraded {
		t.Fatalf("disabled SLO plane returned %+v", st)
	}
	if ok, _ := off.SLOHealth(); !ok {
		t.Fatal("disabled SLO plane reports unhealthy")
	}
}

// TestTraceStreamOutSpan: downloading a result appends an
// externally-timed root-level stream-out span to the sealed trace.
func TestTraceStreamOutSpan(t *testing.T) {
	ts, sched := testServer(t, traceCfg(Config{Executors: 1,
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			return []byte("payload-bytes"), &execMeta{}, nil
		}}))
	st, _ := runJobOverHTTP(t, ts, "/v1/generate", seeded(5))
	tj := jobTrace(t, sched, st.ID)
	var got *ftrace.Span
	for i := range tj.Spans {
		if tj.Spans[i].Name == "stream-out" {
			got = &tj.Spans[i]
		}
	}
	if got == nil {
		t.Fatalf("no stream-out span after download: %v", spanNames(tj))
	}
	if got.Parent != 0 {
		t.Fatalf("stream-out parent %d, want root-level", got.Parent)
	}
	if got.Arg != int64(len("payload-bytes")) {
		t.Fatalf("stream-out arg %d, want payload size %d", got.Arg, len("payload-bytes"))
	}
	if got.EndUS < got.StartUS {
		t.Fatalf("stream-out span not closed: [%d,%d]", got.StartUS, got.EndUS)
	}
}

// TestTraceInstrumentNames: the serve.trace.* / serve.slo.* instruments
// follow the repo's metric grammar (the root-package lint walks real
// recorders; this guards the names at their source).
func TestTraceInstrumentNames(t *testing.T) {
	for _, name := range []string{
		"serve.trace.jobs", "serve.trace.spans", "serve.trace.retained",
		"serve.trace.pinned", "serve.slo.good", "serve.slo.bad",
		"serve.slo.latency-us", "serve.slo.burn-short-x1000",
		"serve.slo.burn-long-x1000", "serve.slo.degraded",
	} {
		if name == "" || name[0] == '.' || name[len(name)-1] == '.' {
			t.Errorf("malformed instrument name %q", name)
		}
		for _, r := range name {
			if !(r == '.' || r == '-' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')) {
				t.Errorf("instrument %q contains %q outside the grammar", name, r)
			}
		}
	}
}
