package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/decwi/decwi/internal/telemetry"
	ftrace "github.com/decwi/decwi/internal/telemetry/flight"
)

// Shape of the tracing-overhead A/B: 40 interleaved pairs of rounds,
// each round overheadJobs cache-hot jobs over overheadClients
// keep-alive clients, gated at a median on/off jobs/s ratio of
// overheadFloor. Rounds are short (about 0.1 s) so that load from
// whatever else shares the CPUs — other packages' tests under
// `go test ./...` — changes little between the two halves of a pair.
const (
	overheadPairs   = 40
	overheadJobs    = 300
	overheadClients = 4
	overheadFloor   = 0.90
)

// overheadSide is one arm of the A/B: a scheduler served over HTTP
// with one primed replay tuple in its result cache.
type overheadSide struct {
	name   string
	url    string
	client *http.Client
	body   []byte // the primed tuple's JobSpec JSON
	want   []byte // the primed tuple's payload
}

// newOverheadSide builds a scheduler the way decwi-served does with
// logging off, serves it on httptest and primes the cache with one
// Config 2 tuple (20,000 scenarios, 2 sectors) over HTTP.
func newOverheadSide(t *testing.T, name string, cfg Config) *overheadSide {
	t.Helper()
	cfg.Telemetry = telemetry.New(0)
	ts, _ := testServer(t, cfg)
	spec := JobSpec{Kind: KindGenerate, Config: 2, Seed: 1000, Scenarios: 20000, Sectors: 2, Workers: 2, Tenant: "t1"}
	_, want := runJobOverHTTP(t, ts, "/v1/generate", spec)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = overheadClients
	t.Cleanup(tr.CloseIdleConnections)
	return &overheadSide{name: name, url: ts.URL, client: &http.Client{Transport: tr}, body: body, want: want}
}

// job runs one submit → ?wait= → /result cycle and checks the bytes.
// Every body is read into buf, which the caller reuses across jobs.
func (o *overheadSide) job(buf *bytes.Buffer) error {
	var st JobStatus
	resp, err := o.client.Post(o.url+"/v1/generate", "application/json", bytes.NewReader(o.body))
	if err = o.read(resp, err, http.StatusAccepted, buf); err != nil {
		return err
	}
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		return err
	}
	resp, err = o.client.Get(o.url + "/v1/jobs/" + st.ID + "?wait=10s")
	if err = o.read(resp, err, http.StatusOK, buf); err != nil {
		return err
	}
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil || st.State != StateDone {
		return fmt.Errorf("job %s: %s %v", st.ID, st.State, err)
	}
	resp, err = o.client.Get(o.url + "/v1/jobs/" + st.ID + "/result")
	if err = o.read(resp, err, http.StatusOK, buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), o.want) {
		return fmt.Errorf("job %s: %d-byte payload differs from the primed %d bytes", st.ID, buf.Len(), len(o.want))
	}
	return nil
}

// read replaces buf's contents with the body of a response that must
// carry the given status.
func (o *overheadSide) read(resp *http.Response, err error, status int, buf *bytes.Buffer) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != status {
		return fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status, buf.Bytes())
	}
	return nil
}

// round runs overheadJobs jobs over overheadClients clients and returns
// the achieved jobs/s.
func (o *overheadSide) round() (float64, error) {
	next := make(chan struct{}, overheadJobs)
	for i := 0; i < overheadJobs; i++ {
		next <- struct{}{}
	}
	close(next)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	runtime.GC() // neither side pays for the other's garbage
	start := time.Now()
	for c := 0; c < overheadClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for range next {
				if err := o.job(&buf); err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("%s: %w", o.name, err) })
					return
				}
			}
		}()
	}
	wg.Wait()
	return overheadJobs / time.Since(start).Seconds(), firstErr
}

// TestTracingOverheadCacheHot is the tracing non-perturbation gate:
// over cache-hot HTTP jobs, where the per-job cost of a trace is
// largest relative to the work, the flight recorder and SLO plane on
// must hold a median of at least 0.90x the tracing-off jobs/s. The two
// sides run in interleaved pairs, alternating which goes first, so
// drift on a shared host lands on both sides of each ratio.
func TestTracingOverheadCacheHot(t *testing.T) {
	if raceEnabled {
		t.Skip("timing gate: race instrumentation swamps the cost being measured")
	}
	on := newOverheadSide(t, "tracing on", Config{Flight: ftrace.New(256, 64, 250*time.Millisecond)})
	off := newOverheadSide(t, "tracing off", Config{SLOLatency: -1})
	// One unmeasured round each warms connections, pools and the heap.
	for _, side := range []*overheadSide{on, off} {
		if _, err := side.round(); err != nil {
			t.Fatal(err)
		}
	}

	ratios := make([]float64, overheadPairs)
	for i := range ratios {
		sides := []*overheadSide{on, off}
		if i%2 == 1 {
			sides[0], sides[1] = off, on
		}
		rate := map[*overheadSide]float64{}
		for _, side := range sides {
			r, err := side.round()
			if err != nil {
				t.Fatal(err)
			}
			rate[side] = r
		}
		ratios[i] = rate[on] / rate[off]
		t.Logf("pair %2d (%s first): on %.0f jobs/s, off %.0f jobs/s, ratio %.3f",
			i+1, sides[0].name, rate[on], rate[off], ratios[i])
	}
	sort.Float64s(ratios)
	median := (ratios[overheadPairs/2-1] + ratios[overheadPairs/2]) / 2
	t.Logf("median on/off ratio %.3f over %d pairs (floor %.2f)", median, overheadPairs, overheadFloor)
	if median < overheadFloor {
		t.Errorf("tracing on runs at a median %.3fx the tracing-off jobs/s, floor %.2f", median, overheadFloor)
	}
}
