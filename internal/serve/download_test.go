package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// bigPayload is the size of the results the download failure-path
// tests serve: several MiB, far more than loopback socket buffers take
// up while the client is not reading, so the server is still inside its
// one Write of the stored bytes while the test acts.
const bigPayload = 16 << 20

// bigPayloadHook is a run hook returning bigPayload seed-dependent
// bytes: a distinct tuple gets distinct bytes.
func bigPayloadHook(_ context.Context, spec *JobSpec) ([]byte, *execMeta, error) {
	raw := make([]byte, bigPayload)
	rand.New(rand.NewSource(int64(spec.Seed))).Read(raw)
	return raw, &execMeta{}, nil
}

// downloadServer serves a scheduler with bigPayloadHook and a cache
// budget of two big results, and returns a cleanup that closes the
// server, drains the scheduler and checks nothing outlives them.
func downloadServer(t *testing.T) (*httptest.Server, *Scheduler, func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	sched := New(Config{Executors: 1, CacheBytes: 5 * bigPayload / 2, CacheTenantBytes: 5 * bigPayload / 2,
		runHook: bigPayloadHook})
	ts := httptest.NewServer(NewServer(sched).Handler())
	return ts, sched, func() {
		t.Helper()
		if t.Failed() {
			return // a stranded handler would hang Close
		}
		ts.Close()
		if err := sched.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
		checkNoLeak(t, before)
	}
}

// submitDone submits spec in process and waits for it to finish done.
func submitDone(t *testing.T, s *Scheduler, spec JobSpec) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("job %s ended %s (%s)", j.ID, st.State, st.Error)
	}
	return j
}

// download GETs a job's result over a fresh connection and checks the
// body against the advertised X-Decwi-Sha256 and the job's own digest.
func download(t *testing.T, ts *httptest.Server, j *Job) {
	t.Helper()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(ts.URL + "/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkDownload(t, resp, body, j)
}

// checkDownload asserts a complete 200 download whose bytes hash to the
// advertised digest, which is the job's completion digest.
func checkDownload(t *testing.T, resp *http.Response, body []byte, j *Job) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %s", j.ID, resp.Status)
	}
	want := resp.Header.Get("X-Decwi-Sha256")
	if got := digest(body); got != want || want != j.Status().SHA256 {
		t.Fatalf("result %s: %d-byte body hashes to %s, advertised %s, job digest %s",
			j.ID, len(body), got, want, j.Status().SHA256)
	}
	if len(body) != bigPayload {
		t.Fatalf("result %s: %d bytes, want %d", j.ID, len(body), bigPayload)
	}
}

// TestServerClientDisconnectMidResult: a client that reads a few KiB
// of a multi-MiB /result and hangs up must not strand the handler on
// its write, disturb the replay-tuple index, or change what the next
// download of the same result delivers.
func TestServerClientDisconnectMidResult(t *testing.T) {
	ts, sched, cleanup := downloadServer(t)
	defer cleanup()
	j := submitDone(t, sched, seeded(1))
	base := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /v1/jobs/%s/result HTTP/1.1\r\nHost: decwi\r\n\r\n", j.ID)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength != bigPayload {
		t.Fatalf("result %s: %s, %d bytes announced", j.ID, resp.Status, resp.ContentLength)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The handler notices the dead client, returns, and its connection
	// goroutines exit.
	checkNoLeak(t, base)
	checkIndex(t, sched)
	download(t, ts, j)
	checkIndex(t, sched)
}

// TestServerEvictionDuringDownload: puts that evict a cache entry while
// one of its cache-hit jobs is mid-download leave that download intact
// (every byte, the advertised digest): a result's wire bytes are
// immutable and shared, so eviction only drops the index's reference.
func TestServerEvictionDuringDownload(t *testing.T) {
	ts, sched, cleanup := downloadServer(t)
	defer cleanup()
	leader := submitDone(t, sched, seeded(1))
	hit := submitDone(t, sched, seeded(1))
	if st := hit.Status(); !st.Cached {
		t.Fatalf("second submission of the tuple ran %s, want a cache hit", st.Lane)
	}
	key := leader.Spec.cacheKey()

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(ts.URL + "/v1/jobs/" + hit.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	head := make([]byte, 4<<10)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatal(err)
	}

	// Distinct tuples fill the cache until the LRU evicts the entry
	// being downloaded. Admission refuses a result that would evict a
	// more-requested entry, so each filler is requested as often as the
	// downloaded tuple was.
	cached := func() bool {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		return sched.cache.entries[key] != nil
	}
	for seed := uint64(2); cached(); seed++ {
		if seed > 5 {
			t.Fatal("cache never evicted the downloaded entry")
		}
		submitDone(t, sched, seeded(seed))
		submitDone(t, sched, seeded(seed))
	}
	checkIndex(t, sched)

	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	checkDownload(t, resp, append(head, rest...), hit)
	if cached() {
		t.Fatal("evicted entry is back in the index")
	}
	download(t, ts, hit)
	checkIndex(t, sched)
}
