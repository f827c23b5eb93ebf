package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/decwi/decwi/internal/serve"
	"github.com/decwi/decwi/internal/telemetry/flight"
	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

// childEnv makes the test binary run main() instead of the tests. The
// smoke tests exec their own binary with it set, so they drive the real
// flag defaults, wiring, signal handling and exit status without a
// separate build.
const childEnv = "DECWI_SERVED_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var (
	apiLine     = regexp.MustCompile(`API on (http://\S+)`)
	metricsLine = regexp.MustCompile(`metrics on (http://\S+)/metrics`)
	client      = &http.Client{Timeout: 30 * time.Second}
)

// logBuffer is a child's stderr: the child's copier writes while the
// test reads.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// served is one decwi-served child process.
type served struct {
	cmd          *exec.Cmd
	api, metrics string // base URLs
	log          *logBuffer
	exited       chan struct{} // closed once waitErr is set
	waitErr      error
}

// startServed runs main() in a child on ephemeral ports with the given
// extra flags and waits until both addresses are announced. t.Cleanup
// kills a child the test did not stop, and fails the test if the child
// then still has not exited.
func startServed(t *testing.T, args ...string) *served {
	t.Helper()
	args = append([]string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	s := &served{cmd: cmd, log: &logBuffer{}, exited: make(chan struct{})}
	cmd.Stderr = s.log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			t.Errorf("decwi-served child %d outlived its test", cmd.Process.Pid)
		}
	})
	for deadline := time.Now().Add(30 * time.Second); ; {
		log := s.log.String()
		if a, m := apiLine.FindStringSubmatch(log), metricsLine.FindStringSubmatch(log); a != nil && m != nil {
			s.api, s.metrics = a[1], m[1]
			return s
		}
		select {
		case <-s.exited:
			t.Fatalf("decwi-served exited before announcing its addresses: %v\n%s", s.waitErr, log)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("decwi-served never announced its addresses:\n%s", log)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends SIGTERM and returns the child's exit error (nil for
// status 0).
func (s *served) stop(t *testing.T) error {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.exited:
		return s.waitErr
	case <-time.After(60 * time.Second):
		t.Fatalf("decwi-served still running 60s after SIGTERM:\n%s", s.log)
		return nil
	}
}

// requireCleanDrain stops the child and requires exit 0 and the drain
// line in its log.
func (s *served) requireCleanDrain(t *testing.T) {
	t.Helper()
	if err := s.stop(t); err != nil {
		t.Fatalf("decwi-served exit after SIGTERM: %v\n%s", err, s.log)
	}
	if !strings.Contains(s.log.String(), "drained, exiting") {
		t.Fatalf("log lacks the drain confirmation:\n%s", s.log)
	}
}

// get fetches url and returns the status code and body.
func get(url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getOK fetches url and requires 200.
func getOK(t *testing.T, url string) []byte {
	t.Helper()
	code, body, err := get(url)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, code, body)
	}
	return body
}

// newTraceparent mints a W3C traceparent; the low words are odd so no
// id is the invalid all-zero one.
func newTraceparent() string {
	return fmt.Sprintf("00-%016x%016x-%016x-01", rand.Uint64(), rand.Uint64()|1, rand.Uint64()|1)
}

// runJob submits spec to base+path, long-polls it to terminal and
// downloads its result. It requires state done, and the result's
// X-Decwi-Sha256 header and body digest to equal the status digest.
// With a traceparent it also requires the accepted and the terminal
// status to echo its trace id. It returns errors rather than failing,
// so concurrent clients can call it.
func runJob(base, path string, spec serve.JobSpec, traceparent string) (serve.JobStatus, []byte, error) {
	var st serve.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return st, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, nil, fmt.Errorf("POST %s: %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, nil, err
	}
	checkTrace := func(st serve.JobStatus) error {
		if traceparent != "" && st.TraceID != traceparent[3:35] {
			return fmt.Errorf("job %s: trace id %q, client sent %q", st.ID, st.TraceID, traceparent)
		}
		return nil
	}
	if err := checkTrace(st); err != nil {
		return st, nil, err
	}
	for deadline := time.Now().Add(60 * time.Second); !st.State.Terminal(); {
		if time.Now().After(deadline) {
			return st, nil, fmt.Errorf("job %s still %s", st.ID, st.State)
		}
		code, body, err := get(base + "/v1/jobs/" + st.ID + "?wait=10s")
		if err != nil {
			return st, nil, err
		}
		if code != http.StatusOK {
			return st, nil, fmt.Errorf("job %s status: %d: %s", st.ID, code, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return st, nil, err
		}
	}
	if st.State != serve.StateDone {
		return st, nil, fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
	}
	if err := checkTrace(st); err != nil {
		return st, nil, err
	}
	resp, err = client.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return st, nil, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, nil, fmt.Errorf("job %s result: %d: %s", st.ID, resp.StatusCode, payload)
	}
	sum := sha256.Sum256(payload)
	if got, hdr := hex.EncodeToString(sum[:]), resp.Header.Get("X-Decwi-Sha256"); got != st.SHA256 || hdr != st.SHA256 {
		return st, nil, fmt.Errorf("job %s: body digest %s, header %s, status %s", st.ID, got, hdr, st.SHA256)
	}
	return st, payload, nil
}

// runJobs runs the specs concurrently through runJob and fails on the
// first error.
func runJobs(t *testing.T, base, path string, specs ...serve.JobSpec) {
	t.Helper()
	errs := make(chan error, len(specs))
	for _, spec := range specs {
		go func() {
			_, _, err := runJob(base, path, spec, "")
			errs <- err
		}()
	}
	for range specs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSmokeServed drives one decwi-served process with its default flags
// over HTTP, then requires a clean SIGTERM drain. Each subtest makes its
// own traffic, so any one of them can run alone.
func TestSmokeServed(t *testing.T) {
	s := startServed(t)

	// Liveness first, while no job can have missed the 500 ms latency
	// objective (a -race build runs the engine several times slower).
	t.Run("Healthz", func(t *testing.T) {
		if got := string(getOK(t, s.metrics+"/healthz")); got != "ok\n" {
			t.Fatalf("healthz body %q, want \"ok\\n\"", got)
		}
	})

	// The binary path pinned to committed digests: TestServerGoldenDigests'
	// tuples, each answered fresh and then from the result cache.
	t.Run("ReplayGoldenDigests", func(t *testing.T) {
		for _, tc := range []struct {
			path string
			spec serve.JobSpec
			want string
		}{
			{"/v1/generate", serve.JobSpec{
				Config: 1, Seed: 0x601DE7, Scenarios: 3001,
				Sectors: 3, Variances: []float64{0.5, 1.39, 4.0}, Workers: 1,
			}, "200591d1c87aaca0b240b55af04a394989156695e9c3c3ceb79b7f5941e58b9a"},
			{"/v1/risk", serve.JobSpec{
				Config: 2, Seed: 0x601DE7, Scenarios: 5000, Sectors: 4, Obligors: 100, Workers: 1,
			}, "1c430e53680179a82a75ae9d2e91de0fa7687f49b0b707dc17a5d0c9e13c55cf"},
		} {
			for _, cached := range []bool{false, true} {
				// runJob has already matched the header and body digests
				// to the status digest.
				st, _, err := runJob(s.api, tc.path, tc.spec, "")
				if err != nil {
					t.Fatal(err)
				}
				if st.Cached != cached || st.SHA256 != tc.want {
					t.Fatalf("%s: cached=%v digest %s, want cached=%v golden %s",
						tc.path, st.Cached, st.SHA256, cached, tc.want)
				}
			}
		}
	})

	// A risk batch of two concurrent jobs: each status echoes the
	// client's traceparent id (runJob checks it) and carries ordered
	// phase timestamps, and the trace is addressable by that id.
	t.Run("RiskTraceparent", func(t *testing.T) {
		type outcome struct {
			st  serve.JobStatus
			err error
		}
		done := make(chan outcome, 2)
		for seed := uint64(501); seed <= 502; seed++ {
			go func() {
				st, _, err := runJob(s.api, "/v1/risk", serve.JobSpec{
					Config: 2, Seed: seed, Scenarios: 5000, Sectors: 2,
					Obligors: 100, PD: 0.02, Exposure: 100, Workers: 2,
				}, newTraceparent())
				done <- outcome{st, err}
			}()
		}
		for i := 0; i < 2; i++ {
			o := <-done
			if o.err != nil {
				t.Fatal(o.err)
			}
			if st := o.st; !(st.AdmittedUnixUS > 0 && st.AdmittedUnixUS <= st.StartedUnixUS &&
				st.StartedUnixUS <= st.FinishedUnixUS) {
				t.Fatalf("job %s: phase stamps admitted %d started %d finished %d",
					st.ID, st.AdmittedUnixUS, st.StartedUnixUS, st.FinishedUnixUS)
			}
			getOK(t, s.api+"/debug/jobs/"+o.st.TraceID)
		}
	})

	// The flight recorder lists at least three jobs and every listed
	// span tree passes the strict schema and containment checks.
	t.Run("DebugJobs", func(t *testing.T) {
		var specs []serve.JobSpec
		for seed := uint64(11); seed <= 13; seed++ {
			specs = append(specs, serve.JobSpec{Config: 2, Seed: seed, Scenarios: 2000, Workers: 1})
		}
		runJobs(t, s.api, "/v1/generate", specs...)
		body := getOK(t, s.api+"/debug/jobs")
		n, err := flight.CheckJobsJSON(body)
		if err != nil {
			t.Fatalf("invalid listing: %v", err)
		}
		if n < 3 {
			t.Fatalf("%d traces listed, want ≥ 3", n)
		}
		var listing flight.JobsJSON
		if err := json.Unmarshal(body, &listing); err != nil {
			t.Fatal(err)
		}
		for _, tr := range listing.Jobs {
			if _, err := flight.CheckTraceJSON(getOK(t, s.api+"/debug/jobs/"+tr.TraceID)); err != nil {
				t.Errorf("trace %s (job %s): %v", tr.TraceID, tr.JobID, err)
			}
		}
	})

	t.Run("Metrics", func(t *testing.T) {
		counters, gauges, hists, err := metricsrv.CheckExposition(string(getOK(t, s.metrics+"/metrics")))
		if err != nil {
			t.Fatalf("invalid exposition: %v", err)
		}
		if counters < 3 || gauges < 2 || hists < 2 {
			t.Fatalf("%d counter, %d gauge, %d histogram families, want ≥ 3/2/2", counters, gauges, hists)
		}
	})

	// Two scrapes: the first primes the server's delta baseline, and
	// both must pass the schema check. A replayed tuple makes one miss
	// and one hit; the admission-refusal counter is published even at 0.
	t.Run("Snapshot", func(t *testing.T) {
		spec := serve.JobSpec{Config: 2, Seed: 21, Scenarios: 2000, Workers: 1}
		runJobs(t, s.api, "/v1/generate", spec)
		runJobs(t, s.api, "/v1/generate", spec)
		var body []byte
		for i := 1; i <= 2; i++ {
			body = getOK(t, s.metrics+"/snapshot")
			counters, gauges, hists, err := metricsrv.CheckSnapshot(body)
			if err != nil {
				t.Fatalf("scrape %d: invalid snapshot: %v", i, err)
			}
			if i == 2 && (counters < 3 || gauges < 2 || hists < 2) {
				t.Fatalf("%d counters, %d gauges, %d histograms, want ≥ 3/2/2", counters, gauges, hists)
			}
		}
		for _, c := range []struct {
			name string
			min  int64
		}{{"serve.cache.hits", 1}, {"serve.cache.misses", 1}, {"serve.cache.admission-refusals", 0}} {
			v, ok, err := metricsrv.SnapshotCounterValue(body, c.name)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || v < c.min {
				t.Errorf("counter %s = %d (present %v), want ≥ %d", c.name, v, ok, c.min)
			}
		}
	})

	s.requireCleanDrain(t)
}

// TestSmokeDrainCoalescedFlight sends SIGTERM while two clients share
// one coalesced flight, held open by an injected executor delay. Both
// clients must download the same digest-checked bytes, the process
// must exit 0 with the drain line, and exactly the flight's two jobs
// must go terminal after the signal.
func TestSmokeDrainCoalescedFlight(t *testing.T) {
	s := startServed(t, "-inject-exec-delay", "500ms")
	spec := serve.JobSpec{Config: 2, Seed: 77, Scenarios: 5000, Sectors: 2, Workers: 1}
	type outcome struct {
		st      serve.JobStatus
		payload []byte
		err     error
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, payload, err := runJob(s.api, "/v1/generate", spec, "")
			results <- outcome{st, payload, err}
		}()
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		v, _, err := metricsrv.SnapshotCounterValue(getOK(t, s.metrics+"/snapshot"), "serve.dedup.coalesced")
		if err != nil {
			t.Fatal(err)
		}
		if v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the second client never coalesced onto the flight:\n%s", s.log)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.requireCleanDrain(t)

	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatalf("a client failed across the drain: %v / %v\n%s", a.err, b.err, s.log)
	}
	if !bytes.Equal(a.payload, b.payload) || a.st.Coalesced == b.st.Coalesced {
		t.Fatalf("clients got %d and %d bytes, coalesced %v and %v; want one flight's bytes, one coalesced",
			len(a.payload), len(b.payload), a.st.Coalesced, b.st.Coalesced)
	}

	log := s.log.String()
	at := strings.Index(log, "signal received")
	if at < 0 {
		t.Fatalf("log lacks the signal line:\n%s", log)
	}
	terminal := 0
	for _, line := range strings.Split(log[at:], "\n") {
		var rec struct {
			Msg string `json:"msg"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "job terminal" {
			terminal++
		}
	}
	if terminal != 2 {
		t.Fatalf("%d jobs went terminal after SIGTERM, want the flight's 2:\n%s", terminal, log)
	}
}

// TestSmokeDrainLatePoll: a client whose long-poll begins only after
// SIGTERM, with no API request open at the signal, gets its answer
// from the drain and must still be able to download the result. An
// injected executor delay keeps the job running through the signal,
// and the client pauses between the answered poll and the download, as
// a client that inspects the status first does.
func TestSmokeDrainLatePoll(t *testing.T) {
	s := startServed(t, "-inject-exec-delay", "800ms")
	body, err := json.Marshal(serve.JobSpec{Config: 2, Seed: 78, Scenarios: 5000, Sectors: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(s.api+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s: %v", resp.StatusCode, body, err)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(s.log.String(), "signal received"); {
		if time.Now().After(deadline) {
			t.Fatalf("no signal line after SIGTERM:\n%s", s.log)
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, body, err := get(s.api + "/v1/jobs/" + st.ID + "?wait=10s")
	if err != nil || code != http.StatusOK {
		t.Fatalf("long-poll after SIGTERM: %d %s: %v\n%s", code, body, err, s.log)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("drain answered the long-poll with state %s, want done", st.State)
	}
	time.Sleep(50 * time.Millisecond)
	code, payload, err := get(s.api + "/v1/jobs/" + st.ID + "/result")
	if err != nil || code != http.StatusOK {
		t.Fatalf("result fetch after the drain answered: %d: %v\n%s", code, err, s.log)
	}
	if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != st.SHA256 {
		t.Fatalf("result digest %x, status digest %s", sum, st.SHA256)
	}

	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		t.Fatalf("decwi-served still running 60s after SIGTERM:\n%s", s.log)
	}
	if s.waitErr != nil || !strings.Contains(s.log.String(), "drained, exiting") {
		t.Fatalf("decwi-served exit after SIGTERM: %v\n%s", s.waitErr, s.log)
	}
}

// TestSmokeDegradedHealthz: an instance whose every engine run is
// slower than a 1 ms latency objective burns both SLO windows, so
// /healthz answers 503 "degraded: ..."; it still drains cleanly.
func TestSmokeDegradedHealthz(t *testing.T) {
	s := startServed(t, "-inject-exec-delay", "20ms", "-slo-latency", "1ms", "-cache-bytes", "0")
	var specs []serve.JobSpec
	for seed := uint64(1); seed <= 4; seed++ {
		specs = append(specs, serve.JobSpec{Config: 2, Seed: seed, Scenarios: 2000, Workers: 1})
	}
	runJobs(t, s.api, "/v1/generate", specs[:2]...)
	runJobs(t, s.api, "/v1/generate", specs[2:]...)
	code, body, err := get(s.metrics + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable || !strings.HasPrefix(string(body), "degraded: ") {
		t.Fatalf("healthz %d %q, want 503 \"degraded: ...\"", code, body)
	}
	s.requireCleanDrain(t)
}

// TestSmokeDrainSpareConnection: a client connection that never sends a
// request (an HTTP client's spare dial) must not hold up the drain,
// which would otherwise wait out the 5 s shutdown budget and exit 1.
func TestSmokeDrainSpareConnection(t *testing.T) {
	s := startServed(t)
	c, err := net.Dial("tcp", strings.TrimPrefix(s.api, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Give the server time to accept the connection before the signal.
	time.Sleep(50 * time.Millisecond)
	s.requireCleanDrain(t)
}
