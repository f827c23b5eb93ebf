package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

// genSpec is a minimal valid generate spec (Config2, 6 work-items).
func genSpec() JobSpec {
	return JobSpec{
		Kind: KindGenerate, Config: 2, Scenarios: 1000, Workers: 1, Tenant: "t1",
	}
}

// seeded is genSpec with a distinct seed — a distinct replay tuple.
// Tests exercising queue, quota or cancel mechanics submit distinct
// tuples so the fast lane (cache, singleflight) cannot collapse them;
// the fast-lane tests submit identical tuples on purpose.
func seeded(seed uint64) JobSpec {
	s := genSpec()
	s.Seed = seed
	return s
}

// parkedHook returns a run hook that blocks every job until release is
// closed (or its context ends), plus the release function.
func parkedHook() (hook func(context.Context, *JobSpec) ([]byte, *execMeta, error), release func()) {
	ch := make(chan struct{})
	var once sync.Once
	hook = func(ctx context.Context, _ *JobSpec) ([]byte, *execMeta, error) {
		select {
		case <-ch:
			return []byte("payload"), &execMeta{}, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return hook, func() { once.Do(func() { close(ch) }) }
}

// waitTerminal waits for the job with a test deadline.
func waitTerminal(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never reached a terminal state", j.ID)
	}
	return j.Status()
}

// TestSchedulerAdmissionAndDrain is the graceful-drain-under-load
// contract, leak-checked: a full queue rejects with ErrQueueFull, a
// draining scheduler rejects with ErrDraining, every admitted job
// completes, and no goroutine survives Drain.
func TestSchedulerAdmissionAndDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	hook, release := parkedHook()
	s := New(Config{Executors: 1, QueueDepth: 2, runHook: hook})

	// One job runs (parked in the hook), two sit in the queue. The
	// first must be claimed by the executor before the queue is filled,
	// or the third submission would race against the dequeue.
	first, err := s.Submit(seeded(1))
	if err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for first.Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	admitted := []*Job{first}
	for i := 1; i < 3; i++ {
		j, err := s.Submit(seeded(uint64(i + 1)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		admitted = append(admitted, j)
	}
	if _, err := s.Submit(seeded(90)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into full queue returned %v, want ErrQueueFull", err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Draining gate: poll until the flag flips, then submissions must
	// fail with ErrDraining.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(seeded(91)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining returned %v, want ErrDraining", err)
	}

	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, j := range admitted {
		st := waitTerminal(t, j)
		if st.State != StateDone {
			t.Errorf("admitted job %d ended %s (%s), want done", i, st.State, st.Error)
		}
		if p, _ := j.Payload(); string(p) != "payload" {
			t.Errorf("admitted job %d payload %q", i, p)
		}
	}

	checkNoLeak(t, before)
}

// checkNoLeak waits up to a second for the goroutine count to fall back
// to before, the count taken before the scheduler was built.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 100 {
			t.Fatalf("goroutine leak after drain: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSchedulerDrainAbort: when the drain context expires, running jobs
// are cancelled (terminal state cancelled), the drain error names the
// cause, and the executors are still joined.
func TestSchedulerDrainAbort(t *testing.T) {
	hook, release := parkedHook()
	defer release()
	s := New(Config{Executors: 1, runHook: hook})
	j, err := s.Submit(genSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("aborted drain returned %v, want deadline error", err)
	}
	if st := waitTerminal(t, j); st.State != StateCancelled {
		t.Fatalf("aborted job ended %s, want cancelled", st.State)
	}
}

// TestSchedulerQuota: a tenant exhausting its bucket is rejected with
// ErrQuota while other tenants still admit; refill restores admission.
func TestSchedulerQuota(t *testing.T) {
	clock := time.Unix(5000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	s := New(Config{QuotaRate: 1, QuotaBurst: 2, now: now})
	defer s.Drain(context.Background())

	for i := 0; i < 2; i++ {
		if _, err := s.Submit(seeded(uint64(i + 1))); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(seeded(3)); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota submit returned %v, want ErrQuota", err)
	}
	other := seeded(4)
	other.Tenant = "t2"
	if _, err := s.Submit(other); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	mu.Lock()
	clock = clock.Add(time.Second)
	mu.Unlock()
	if _, err := s.Submit(seeded(5)); err != nil {
		t.Fatalf("post-refill submit: %v", err)
	}
}

// TestSchedulerCancel covers both cancellation paths: a queued job goes
// terminal without ever running, a running job is stopped through its
// context.
func TestSchedulerCancel(t *testing.T) {
	hook, release := parkedHook()
	defer release()
	s := New(Config{Executors: 1, QueueDepth: 4, runHook: hook})
	defer func() {
		release()
		s.Drain(context.Background())
	}()

	running, err := s.Submit(seeded(1))
	if err != nil {
		t.Fatal(err)
	}
	for running.Status().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(seeded(2))
	if err != nil {
		t.Fatal(err)
	}

	if !queued.Cancel() {
		t.Fatal("cancel of queued job reported not-cancellable")
	}
	if st := queued.Status(); st.State != StateCancelled {
		t.Fatalf("queued job state %s after cancel", st.State)
	}
	if !running.Cancel() {
		t.Fatal("cancel of running job reported not-cancellable")
	}
	if st := waitTerminal(t, running); st.State != StateCancelled {
		t.Fatalf("running job ended %s after cancel", st.State)
	}
	// A terminal job is not cancellable again.
	if running.Cancel() {
		t.Fatal("cancel of terminal job reported cancellable")
	}
}

// TestSchedulerTimeout: a job exceeding its TimeoutMS fails with a
// timeout error instead of running forever.
func TestSchedulerTimeout(t *testing.T) {
	hook, release := parkedHook()
	defer release()
	s := New(Config{Executors: 1, runHook: hook})
	defer func() {
		release()
		s.Drain(context.Background())
	}()
	spec := genSpec()
	spec.TimeoutMS = 30
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || !strings.Contains(st.Error, "timeout") {
		t.Fatalf("timed-out job ended %s (%q), want failed/timeout", st.State, st.Error)
	}
}

// TestSchedulerRetention: terminal records beyond RetainJobs are
// evicted oldest-first, and Remove evicts eagerly.
func TestSchedulerRetention(t *testing.T) {
	s := New(Config{Executors: 1, QueueDepth: 16, RetainJobs: 2,
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			return []byte("x"), &execMeta{}, nil
		}})
	defer s.Drain(context.Background())

	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(seeded(uint64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		jobs = append(jobs, j)
	}
	if s.Get(jobs[0].ID) != nil || s.Get(jobs[1].ID) != nil {
		t.Fatal("retention cap did not evict the oldest terminal records")
	}
	if s.Get(jobs[3].ID) == nil {
		t.Fatal("retention evicted a record inside the cap")
	}
	if !s.Remove(jobs[3].ID) {
		t.Fatal("explicit Remove of a terminal record failed")
	}
	if s.Get(jobs[3].ID) != nil {
		t.Fatal("record still present after Remove")
	}
}

// TestSchedulerRemovePreservesRetention: an explicit Remove must purge
// the evicted ID from the retention FIFO. It used to leave the ID in
// place, where it still counted against RetainJobs — every Remove
// silently shrank the effective retention window by one, evicting live
// records early.
func TestSchedulerRemovePreservesRetention(t *testing.T) {
	s := New(Config{Executors: 1, QueueDepth: 16, RetainJobs: 3,
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			return []byte("x"), &execMeta{}, nil
		}})
	defer s.Drain(context.Background())

	var seedSeq uint64
	run := func() *Job {
		seedSeq++
		j, err := s.Submit(seeded(seedSeq))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		return j
	}
	j1, j2, j3 := run(), run(), run()
	if !s.Remove(j2.ID) || !s.Remove(j3.ID) {
		t.Fatal("Remove of terminal records failed")
	}
	j4, j5 := run(), run()
	// Live terminal records are now {j1, j4, j5} — exactly RetainJobs.
	// Ghost FIFO entries for j2/j3 would push j1 (and then j4) out.
	for _, j := range []*Job{j1, j4, j5} {
		if s.Get(j.ID) == nil {
			t.Fatalf("removed-job ghosts shrank the retention window: job %s evicted with only %d live records", j.ID, 3)
		}
	}
}

// blockingHandler is a slog.Handler that parks the first "job terminal"
// record until release is closed, holding onTerminal between a job's
// terminal transition and its retention entry.
type blockingHandler struct {
	entered chan struct{}
	release chan struct{}
	once    *sync.Once
}

func (h blockingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h blockingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h blockingHandler) WithGroup(string) slog.Handler            { return h }
func (h blockingHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "job terminal" {
		h.once.Do(func() {
			close(h.entered)
			<-h.release
		})
	}
	return nil
}

// TestSchedulerRemoveUnsettled: a job is removable only once it is
// settled (Done closed). A Remove landing between the terminal
// transition and onTerminal's retention entry used to succeed, after
// which the entry was appended for a record already gone — a stale FIFO
// entry counting against RetainJobs.
func TestSchedulerRemoveUnsettled(t *testing.T) {
	h := blockingHandler{entered: make(chan struct{}), release: make(chan struct{}), once: new(sync.Once)}
	s := New(Config{Executors: 1, Logger: slog.New(h),
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			return []byte("x"), &execMeta{}, nil
		}})
	defer s.Drain(context.Background())

	j, err := s.Submit(seeded(1))
	if err != nil {
		t.Fatal(err)
	}
	<-h.entered // j is terminal; onTerminal is parked in the logger
	if st := j.Status(); !st.State.Terminal() {
		t.Fatalf("job state %s while its terminal record is logged", st.State)
	}
	removed := s.Remove(j.ID)
	close(h.release)
	waitTerminal(t, j)
	s.mu.Lock()
	fifo := append([]string(nil), s.terminal...)
	s.mu.Unlock()
	if removed {
		t.Fatalf("Remove=true before the job settled; fifo=%v", fifo)
	}
	for _, id := range fifo {
		if s.Get(id) == nil {
			t.Fatalf("stale retention entry %s: fifo=%v", id, fifo)
		}
	}
	if !s.Remove(j.ID) {
		t.Fatal("Remove of a settled job failed")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.terminal) != 0 {
		t.Fatalf("fifo %v after Remove, want empty", s.terminal)
	}
}

// TestSchedulerPanicBarrier: a panic inside job execution fails that
// one job with a descriptive error instead of killing the executor
// goroutine — the pool keeps servicing later jobs.
func TestSchedulerPanicBarrier(t *testing.T) {
	s := New(Config{Executors: 1, runHook: func(_ context.Context, spec *JobSpec) ([]byte, *execMeta, error) {
		if spec.Tenant == "boom" {
			panic("synthetic executor panic")
		}
		return []byte("ok"), &execMeta{}, nil
	}})
	defer s.Drain(context.Background())

	bad := genSpec()
	bad.Tenant = "boom"
	j, err := s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("panicking job ended %s (%q), want failed/panicked", st.State, st.Error)
	}
	// The executor survived the panic: a follow-up job still completes.
	j2, err := s.Submit(genSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j2); st.State != StateDone {
		t.Fatalf("post-panic job ended %s (%s), want done", st.State, st.Error)
	}
}

// TestSchedulerCancelledQueueWait: a job cancelled before any executor
// claims it reports the queue wait up to its terminal transition — the
// figure must not keep growing with wall-clock time afterwards.
func TestSchedulerCancelledQueueWait(t *testing.T) {
	clock := time.Unix(9000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	tick := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }
	hook, release := parkedHook()
	s := New(Config{Executors: 1, QueueDepth: 4, runHook: hook, now: now})
	defer func() {
		release()
		s.Drain(context.Background())
	}()

	running, err := s.Submit(seeded(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for running.Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(seeded(2))
	if err != nil {
		t.Fatal(err)
	}
	tick(5 * time.Millisecond)
	if !queued.Cancel() {
		t.Fatal("cancel of queued job reported not-cancellable")
	}
	got := queued.Status().QueueWaitUS
	if got != 5000 {
		t.Fatalf("cancelled-while-queued wait %d µs, want 5000", got)
	}
	tick(time.Hour)
	if again := queued.Status().QueueWaitUS; again != got {
		t.Fatalf("queue wait grew from %d to %d µs after terminal state", got, again)
	}
}

// TestTenantLabelFold: the first maxTenantLabels distinct tenants keep
// their own metric label, later ones fold into the catch-all, and
// already-interned names stay stable — client-chosen tenant names
// cannot grow the recorder without bound.
func TestTenantLabelFold(t *testing.T) {
	s := New(Config{})
	defer s.Drain(context.Background())
	for i := 0; i < maxTenantLabels; i++ {
		name := fmt.Sprintf("t-%03d", i)
		if got := s.tenantLabel(name); got != name {
			t.Fatalf("tenant %q folded to %q inside the label cap", name, got)
		}
	}
	if got := s.tenantLabel("one-too-many"); got != tenantOverflowLabel {
		t.Fatalf("tenant beyond the cap got label %q, want %q", got, tenantOverflowLabel)
	}
	if got := s.tenantLabel("t-000"); got != "t-000" {
		t.Fatalf("interned tenant lost its label: %q", got)
	}
}

// TestSchedulerGenerateJob runs one real generate job end to end (no
// hook): the payload must be non-empty, digested, and carry scheduler
// metadata.
func TestSchedulerGenerateJob(t *testing.T) {
	s := New(Config{Executors: 1})
	defer s.Drain(context.Background())
	spec := JobSpec{Kind: KindGenerate, Config: 2, Scenarios: 5000, Sectors: 2, Seed: 11, Workers: 2}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	if st.Bytes != 4*5000*2 {
		t.Fatalf("payload %d bytes, want %d", st.Bytes, 4*5000*2)
	}
	if st.SHA256 == "" || st.Chunks < 1 || st.RejectionRate <= 0 {
		t.Fatalf("missing result metadata: %+v", st)
	}
}

// TestSchedulerScrapeCountersOnlyAdd: every job a scheduler runs
// records into its one recorder, so a small job after a large one must
// move no counter back. Jobs of different sizes run one after another
// with a /snapshot and a /metrics scrape after each: every snapshot
// passes CheckSnapshot (which refuses a negative delta) and no /metrics
// counter series reads less than at the scrape before.
func TestSchedulerScrapeCountersOnlyAdd(t *testing.T) {
	rec := telemetry.New(0)
	s := New(Config{Executors: 1, Telemetry: rec})
	defer s.Drain(context.Background())
	msrv, err := metricsrv.New(rec)
	if err != nil {
		t.Fatal(err)
	}
	scrape := func(path string) string {
		t.Helper()
		w := httptest.NewRecorder()
		msrv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
		return w.Body.String()
	}

	prev := map[string]float64{}
	for i, n := range []int64{60000, 600, 600, 6000} {
		j, err := s.Submit(JobSpec{Kind: KindGenerate, Config: 2, Scenarios: n, Workers: 2, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st.State != StateDone {
			t.Fatalf("job %d ended %s (%s)", i, st.State, st.Error)
		}
		if _, _, _, err := metricsrv.CheckSnapshot([]byte(scrape("/snapshot"))); err != nil {
			t.Fatalf("after job %d (%d scenarios): %v", i, n, err)
		}
		body := scrape("/metrics")
		if _, _, _, err := metricsrv.CheckExposition(body); err != nil {
			t.Fatalf("after job %d (%d scenarios): %v", i, n, err)
		}
		counter := map[string]bool{} // family → declared a counter
		for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				counter[f[2]] = f[3] == "counter"
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			series := line[:sp]
			if line[0] == '#' || !counter[strings.SplitN(series, "{", 2)[0]] {
				continue
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			if v < prev[series] {
				t.Errorf("after job %d (%d scenarios): counter %s went from %v to %v", i, n, series, prev[series], v)
			}
			prev[series] = v
		}
	}
	if _, ok := prev[`decwi_engine_cycles{instance="0"}`]; !ok {
		t.Fatalf("/metrics carried no engine cycle counter; saw %d counter series", len(prev))
	}
}
