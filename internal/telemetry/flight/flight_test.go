package flight

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock so retention and pin-threshold
// tests are deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestRecorder(ring, pin int, slow time.Duration) (*Recorder, *fakeClock) {
	r := New(ring, pin, slow)
	clk := newFakeClock()
	r.now = clk.now
	return r, clk
}

// checkListing round-trips Jobs() through JSON and the validator.
func checkListing(t *testing.T, r *Recorder) JobsJSON {
	t.Helper()
	jobs := r.Jobs()
	body, err := json.Marshal(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckJobsJSON(body); err != nil {
		t.Fatalf("CheckJobsJSON: %v\n%s", err, body)
	}
	return jobs
}

// checkTrace round-trips one trace through JSON and the validator.
func checkTrace(t *testing.T, r *Recorder, id string) TraceJSON {
	t.Helper()
	tj, ok := r.Get(id)
	if !ok {
		t.Fatalf("trace %s not retained", id)
	}
	body, err := json.Marshal(tj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckTraceJSON(body); err != nil {
		t.Fatalf("CheckTraceJSON(%s): %v\n%s", id, err, body)
	}
	return tj
}

func TestFlightSpanTree(t *testing.T) {
	r, clk := newTestRecorder(8, 4, time.Hour)
	tr := r.Start("", "generate")
	if tr.TraceID() == "" {
		t.Fatal("minted trace has no id")
	}
	tr.SetJob("j-00000001")
	tr.SetTenant("acme")
	tr.SetLane("queued")

	root := tr.Begin("job", 0)
	v := tr.Begin("validate", root)
	clk.advance(2 * time.Millisecond)
	tr.End(v)
	run := tr.Begin("engine-run", root)
	clk.advance(1 * time.Millisecond)
	chunkStart := clk.now()
	clk.advance(3 * time.Millisecond)
	tr.Add("chunk[0]", run, chunkStart, clk.now(), "work-items [0,4)", 0)
	clk.advance(1 * time.Millisecond)
	tr.EndDetail(run, "ok", 4)
	tr.End(root)
	tr.Finish("done", "")

	// Lookup by job id and by trace id must agree.
	byJob := checkTrace(t, r, "j-00000001")
	byTrace := checkTrace(t, r, tr.TraceID())
	if byJob.TraceID != byTrace.TraceID || len(byJob.Spans) != len(byTrace.Spans) {
		t.Fatalf("job-id and trace-id lookups disagree: %+v vs %+v", byJob, byTrace)
	}
	if byJob.State != "done" || byJob.Lane != "queued" || byJob.Tenant != "acme" {
		t.Fatalf("trace metadata wrong: %+v", byJob)
	}
	if got := len(byJob.Spans); got != 4 {
		t.Fatalf("span count %d, want 4", got)
	}
	// The chunk span must be parented under engine-run and contained.
	chunk := byJob.Spans[3]
	if chunk.Name != "chunk[0]" || chunk.Parent != run {
		t.Fatalf("chunk span: %+v (want parent %d)", chunk, run)
	}
	if byJob.DurationUS != (7 * time.Millisecond).Microseconds() {
		t.Fatalf("duration %dus, want 7000", byJob.DurationUS)
	}
}

func TestFlightFinishClosesOpenSpans(t *testing.T) {
	r, clk := newTestRecorder(8, 4, time.Hour)
	tr := r.Start("", "generate")
	root := tr.Begin("job", 0)
	tr.Begin("queue-wait", root) // deliberately left open
	clk.advance(5 * time.Millisecond)
	tr.Finish("cancelled", "cancelled before start")

	tj := checkTrace(t, r, tr.TraceID()) // validator rejects open spans on terminal traces
	for _, s := range tj.Spans {
		if s.EndUS < 0 {
			t.Fatalf("span %q still open after Finish", s.Name)
		}
	}
	// Double-finish must not reopen or restate.
	tr.Finish("done", "")
	if tj2, _ := r.Get(tr.TraceID()); tj2.State != "cancelled" {
		t.Fatalf("second Finish overwrote state: %s", tj2.State)
	}
}

func TestFlightRingWrap(t *testing.T) {
	r, _ := newTestRecorder(4, 2, time.Hour)
	var ids []string
	for i := 0; i < 10; i++ {
		tr := r.Start("", "generate")
		tr.SetJob(fmt.Sprintf("j-%08d", i))
		tr.Begin("job", 0)
		tr.Finish("done", "")
		ids = append(ids, tr.TraceID())
	}
	jobs := checkListing(t, r)
	if len(jobs.Jobs) != 4 {
		t.Fatalf("ring retained %d traces, want 4", len(jobs.Jobs))
	}
	if jobs.Recorded != 10 || jobs.Evicted != 6 {
		t.Fatalf("totals recorded=%d evicted=%d, want 10/6", jobs.Recorded, jobs.Evicted)
	}
	// Newest first: the most recent submission leads the listing.
	if jobs.Jobs[0].JobID != "j-00000009" {
		t.Fatalf("listing head %s, want j-00000009", jobs.Jobs[0].JobID)
	}
	// Evicted traces are gone from both indexes.
	if _, ok := r.Get(ids[0]); ok {
		t.Fatal("oldest trace still resolvable after ring wrap")
	}
	if _, ok := r.Get("j-00000000"); ok {
		t.Fatal("oldest job id still resolvable after ring wrap")
	}
	if _, ok := r.Get(ids[9]); !ok {
		t.Fatal("newest trace not resolvable")
	}
}

func TestFlightPinningUnderChurn(t *testing.T) {
	r, clk := newTestRecorder(4, 2, 100*time.Millisecond)

	// One failed job and one slow job, then a churn of fast successes
	// that wraps the ring many times over.
	failed := r.Start("", "generate")
	failed.SetJob("j-failed")
	failed.Finish("failed", "boom")

	slow := r.Start("", "generate")
	slow.SetJob("j-slow")
	clk.advance(150 * time.Millisecond) // ≥ slow threshold
	slow.Finish("done", "")

	for i := 0; i < 50; i++ {
		tr := r.Start("", "generate")
		tr.Finish("done", "")
	}

	// Both pinned traces must have survived the churn.
	fj := checkTrace(t, r, "j-failed")
	if !fj.Pinned || fj.State != "failed" {
		t.Fatalf("failed trace not pinned: %+v", fj)
	}
	sj := checkTrace(t, r, "j-slow")
	if !sj.Pinned || sj.DurationUS < (100*time.Millisecond).Microseconds() {
		t.Fatalf("slow trace not pinned: %+v", sj)
	}
	jobs := checkListing(t, r)
	if jobs.Pinned != 2 {
		t.Fatalf("pinned count %d, want 2", jobs.Pinned)
	}
	// 4 ring + 2 pinned-out-of-ring retained.
	if len(jobs.Jobs) != 6 {
		t.Fatalf("retained %d traces, want 6 (4 ring + 2 pinned)", len(jobs.Jobs))
	}

	// A third pinned trace evicts the oldest pinned one (FIFO cap 2).
	third := r.Start("", "generate")
	third.SetJob("j-failed-2")
	third.Finish("failed", "boom again")
	for i := 0; i < 10; i++ {
		tr := r.Start("", "generate")
		tr.Finish("done", "")
	}
	if _, ok := r.Get("j-failed"); ok {
		t.Fatal("oldest pinned trace survived past the pin cap")
	}
	for _, id := range []string{"j-slow", "j-failed-2"} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("pinned trace %s lost", id)
		}
	}
	checkListing(t, r)
}

func TestFlightFastJobsNotPinned(t *testing.T) {
	r, clk := newTestRecorder(4, 2, 100*time.Millisecond)
	tr := r.Start("", "generate")
	clk.advance(10 * time.Millisecond) // well under the threshold
	tr.Finish("done", "")
	if tj, _ := r.Get(tr.TraceID()); tj.Pinned {
		t.Fatal("fast successful job was pinned")
	}
	if st := r.Stats(); st.Pinned != 0 {
		t.Fatalf("pinned stat %d, want 0", st.Pinned)
	}
}

func TestFlightSpanCap(t *testing.T) {
	r, _ := newTestRecorder(2, 1, time.Hour)
	tr := r.Start("", "generate")
	for i := 0; i < maxSpans+100; i++ {
		tr.End(tr.Begin("s", 0))
	}
	tr.Finish("done", "")
	tj := checkTrace(t, r, tr.TraceID())
	if len(tj.Spans) != maxSpans {
		t.Fatalf("stored %d spans, want cap %d", len(tj.Spans), maxSpans)
	}
	if tj.Dropped != 100 {
		t.Fatalf("dropped %d, want 100", tj.Dropped)
	}
	if tr.SpanCount() != maxSpans+100 {
		t.Fatalf("SpanCount %d, want %d", tr.SpanCount(), maxSpans+100)
	}
}

func TestFlightNilSafety(t *testing.T) {
	var r *Recorder
	tr := r.Start("deadbeefdeadbeefdeadbeefdeadbeef", "generate")
	if tr != nil {
		t.Fatal("nil recorder minted a trace")
	}
	// Every operation on the nil trace must be a no-op, not a panic.
	tr.SetJob("j-x")
	tr.SetTenant("t")
	tr.SetLane("queued")
	id := tr.Begin("job", 0)
	if id != 0 {
		t.Fatalf("nil Begin returned %d", id)
	}
	tr.End(id)
	tr.EndDetail(id, "d", 1)
	tr.Add("chunk[0]", 0, time.Now(), time.Now(), "", 0)
	tr.Event("e", 0, "")
	tr.Finish("done", "")
	if tr.TraceID() != "" || tr.SpanCount() != 0 {
		t.Fatal("nil trace reported state")
	}
	if _, ok := r.Get("j-x"); ok {
		t.Fatal("nil recorder resolved a trace")
	}
	jobs := r.Jobs()
	if jobs.Recorded != 0 || len(jobs.Jobs) != 0 {
		t.Fatal("nil recorder listed traces")
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("nil recorder stats %+v", st)
	}
}

func TestFlightConcurrentChurnAndReads(t *testing.T) {
	// Writers churn traces (with pins) while readers snapshot the
	// listing and individual traces; the race detector plus the JSON
	// validators are the assertion.
	r := New(16, 4, time.Hour)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr := r.Start("", "generate")
				tr.SetJob(fmt.Sprintf("j-%d-%d", w, i))
				root := tr.Begin("job", 0)
				s := tr.Begin("engine-run", root)
				tr.Add("chunk[0]", s, time.Now(), time.Now(), "", int64(i))
				tr.End(s)
				tr.End(root)
				if i%7 == 0 {
					tr.Finish("failed", "injected")
				} else {
					tr.Finish("done", "")
				}
			}
		}(w)
	}
	deadline := time.After(200 * time.Millisecond)
	for {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			checkListing(t, r)
			return
		default:
		}
		jobs := r.Jobs()
		body, err := json.Marshal(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CheckJobsJSON(body); err != nil {
			t.Fatalf("listing invalid under churn: %v", err)
		}
		for _, s := range jobs.Jobs {
			if tj, ok := r.Get(s.TraceID); ok {
				if b, err := json.Marshal(tj); err == nil {
					if _, err := CheckTraceJSON(b); err != nil {
						t.Fatalf("trace %s invalid under churn: %v", s.TraceID, err)
					}
				}
			}
		}
	}
}

func TestTraceIDFrom(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if got := TraceIDFrom(valid); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("TraceIDFrom(valid) = %q", got)
	}
	for _, bad := range []string{
		"",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // unknown version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // all-zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",    // truncated
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", // uppercase
		"00-0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331-01", // bad separator
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333x-01", // bad parent hex
	} {
		if got := TraceIDFrom(bad); got != "" {
			t.Fatalf("TraceIDFrom(%q) = %q, want \"\"", bad, got)
		}
	}
	// A recorder must adopt a valid id and replace an invalid one.
	r, _ := newTestRecorder(4, 2, time.Hour)
	tr := r.Start(TraceIDFrom(valid), "generate")
	if tr.TraceID() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("recorder did not adopt the caller id: %s", tr.TraceID())
	}
	tr2 := r.Start("not-a-trace-id", "generate")
	if !validTraceID(tr2.TraceID()) {
		t.Fatalf("minted id %q invalid", tr2.TraceID())
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if !validTraceID(id) {
			t.Fatalf("minted id %q invalid", id)
		}
		if seen[id] {
			t.Fatalf("duplicate minted id %q", id)
		}
		seen[id] = true
	}
}

func TestCheckTraceJSONRejects(t *testing.T) {
	base := func() TraceJSON {
		return TraceJSON{
			TraceID: "0af7651916cd43dd8448eb211c80319c",
			State:   "done", DurationUS: 10,
			Spans: []Span{
				{ID: 1, Name: "job", StartUS: 0, EndUS: 10},
				{ID: 2, Parent: 1, Name: "validate", StartUS: 1, EndUS: 2},
			},
		}
	}
	cases := []struct {
		name   string
		mutate func(*TraceJSON)
	}{
		{"open span on terminal trace", func(t *TraceJSON) { t.Spans[1].EndUS = -1 }},
		{"end before start", func(t *TraceJSON) { t.Spans[1].EndUS = 0 }},
		{"child starts before parent", func(t *TraceJSON) { t.Spans[0].StartUS = 5; t.Spans[0].EndUS = 10 }},
		{"child ends after parent", func(t *TraceJSON) { t.Spans[1].EndUS = 99 }},
		{"forward parent", func(t *TraceJSON) { t.Spans[0].Parent = 2 }},
		{"id gap", func(t *TraceJSON) { t.Spans[1].ID = 7 }},
		{"empty name", func(t *TraceJSON) { t.Spans[1].Name = "" }},
		{"empty state", func(t *TraceJSON) { t.State = "" }},
		{"terminal without duration", func(t *TraceJSON) { t.DurationUS = -1 }},
		{"unknown clock", func(t *TraceJSON) { t.Spans[0].Clock = "ticks"; t.Spans[1].Clock = "ticks" }},
		{"child on another clock", func(t *TraceJSON) { t.Spans[1].Clock = CycleClock }},
	}
	for _, tc := range cases {
		tj := base()
		tc.mutate(&tj)
		body, err := json.Marshal(tj)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CheckTraceJSON(body); err == nil {
			t.Errorf("%s: validator accepted a corrupt trace", tc.name)
		}
	}
	// The unmutated base must pass.
	body, _ := json.Marshal(base())
	if _, err := CheckTraceJSON(body); err != nil {
		t.Fatalf("base trace rejected: %v", err)
	}
	// Only the end of input may follow the object, in both validators.
	jobs, _ := json.Marshal(JobsJSON{})
	if _, err := CheckJobsJSON(jobs); err != nil {
		t.Fatalf("empty listing rejected: %v", err)
	}
	for _, tail := range []string{" }", "]", "{}"} {
		if _, err := CheckTraceJSON(append(body[:len(body):len(body)], tail...)); err == nil {
			t.Errorf("trace followed by %q accepted", tail)
		}
		if _, err := CheckJobsJSON(append(jobs[:len(jobs):len(jobs)], tail...)); err == nil {
			t.Errorf("jobs listing followed by %q accepted", tail)
		}
	}
	// Unknown fields are rejected (strict decode).
	if _, err := CheckTraceJSON([]byte(`{"trace_id":"x","state":"done","duration_us":1,"start_unix_us":0,"spans":[],"bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestFlightChromeExport(t *testing.T) {
	r, clk := newTestRecorder(4, 2, time.Hour)
	tr := r.Start("", "generate")
	tr.SetJob("j-chrome")
	root := tr.Begin("job", 0)
	run := tr.Begin("engine-run", root)
	s := tr.Now()
	clk.advance(2 * time.Millisecond)
	tr.Put(Span{Parent: run, Track: "engine worker 0", Name: "chunk[0]", StartUS: s, EndUS: tr.Now(), Detail: "work-items [0,2)"})
	tr.Put(Span{Parent: run, Track: "engine worker 1", Name: "chunk[1]", StartUS: s, EndUS: tr.Now(), Detail: "work-items [2,4) (stolen)", Arg: 1})
	tr.End(run)
	tr.End(root)
	tr.Finish("done", "")

	tj := checkTrace(t, r, "j-chrome")
	b, err := tj.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	// process_name + serve thread + 2 worker threads + 4 spans.
	var meta, spans int
	tids := map[float64]bool{}
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			spans++
			tids[ev["tid"].(float64)] = true
		}
	}
	if meta != 4 || spans != 4 {
		t.Fatalf("chrome export: %d metadata, %d spans (want 4, 4)\n%s", meta, spans, b)
	}
	// job+engine-run on the serve tid, one tid per chunk worker track.
	if len(tids) != 3 {
		t.Fatalf("chrome export used %d tids, want 3", len(tids))
	}
}

// TestChromeClockProcesses: a run trace mixing the three clocks renders
// one trace process per clock and one thread per (clock, track), a
// track name reused on two clocks gets a thread on each, instants
// render with a visible duration, and a span on an unknown clock is
// refused rather than drawn on the wrong axis.
func TestChromeClockProcesses(t *testing.T) {
	tr := NewTrace("run", 64)
	tr.Put(Span{Track: "Transfer[0]", Name: "process", StartUS: 0, EndUS: 100})
	tr.Put(Span{Track: "GammaRNG[0]", Clock: CycleClock, Name: "rejection-retry", StartUS: 42, EndUS: 42, Arg: 3})
	tr.Put(Span{Track: "queue[FPGA] worker", Name: "command", Detail: "ndrange:Config3", StartUS: 10, EndUS: 30})
	tr.Put(Span{Track: "queue[FPGA] device", Clock: DeviceClock, Name: "command", Detail: "ndrange:Config3", StartUS: 0, EndUS: 41})
	tr.Put(Span{Track: "counters", Clock: CycleClock, Name: "engine.cycles[0]", StartUS: 42, EndUS: 42, Arg: 1000})
	tr.Put(Span{Track: "counters", Name: "queue.commands", StartUS: 100, EndUS: 100, Arg: 1})
	tr.Finish("done", "")
	tj := tr.Snapshot()
	body, err := json.Marshal(tj)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := CheckTraceJSON(body); err != nil || n != 6 {
		t.Fatalf("CheckTraceJSON = %d, %v; want 6 spans accepted", n, err)
	}
	raw, err := tj.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Dur   int64          `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	procs := map[int]string{}
	threads := map[[2]int]string{}
	for _, ev := range parsed.TraceEvents {
		switch {
		case ev.Name == "process_name":
			procs[ev.PID] = ev.Args["name"].(string)
		case ev.Name == "thread_name":
			threads[[2]int{ev.PID, ev.TID}] = ev.Args["name"].(string)
		case ev.Phase != "X":
			t.Fatalf("unexpected %q event %q", ev.Phase, ev.Name)
		case ev.Dur < 1:
			t.Fatalf("span %q renders with duration %d", ev.Name, ev.Dur)
		}
	}
	if len(procs) != 3 {
		t.Fatalf("%d trace processes, want one per clock: %v", len(procs), procs)
	}
	for pid, c := range clocks {
		if name := procs[pid+1]; !strings.HasSuffix(name, c.name) {
			t.Fatalf("process %d named %q, want the %q clock", pid+1, name, c.name)
		}
	}
	pidOf := map[string][]int{}
	for k, name := range threads {
		pidOf[name] = append(pidOf[name], k[0])
	}
	if len(threads) != 6 || len(pidOf["counters"]) != 2 || pidOf["Transfer[0]"][0] == pidOf["GammaRNG[0]"][0] {
		t.Fatalf("threads %v: want one per (clock, track)", threads)
	}

	tj.Spans[0].Clock = "ticks"
	if _, err := tj.ChromeTrace(); err == nil {
		t.Fatal("rendered a span on an unknown clock")
	}
}
