// Command decwi-loadgen drives a running decwi-served instance with a
// closed-loop workload and reports the latency distribution and
// saturation throughput. It is the client half of scripts/serve_smoke.sh;
// the measured serve workloads live in the bench/ harness.
//
// Each worker loops submit → long-poll → download → delete over a
// persistent connection (the transport keeps one idle conn per worker,
// so the harness measures the server, not TCP churn); 429 responses are
// retried after the server's Retry-After hint with jitter, so the
// measured throughput is the service's admission-controlled capacity,
// not a queue blow-up. Every downloaded payload is checked against the
// X-Decwi-Sha256 digest the server advertises.
//
// Usage:
//
//	decwi-loadgen -url http://127.0.0.1:8080 -requests 64 -concurrency 8
//	decwi-loadgen -url http://... -kind risk -requests 16
//	decwi-loadgen -url http://... -replay       # determinism check, 2 submits
//	decwi-loadgen -url http://... -same-seed    # one tuple repeated: cache-hot
//	decwi-loadgen -url http://... -phases       # per-phase latency breakdown
//
// Every submission carries a client-minted W3C traceparent header, so
// each job's flight-recorder trace (GET /debug/jobs/{trace-id}) is
// addressable from the client side; the server must echo the same
// trace id back through the job status.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type jobSpec struct {
	Kind      string  `json:"kind,omitempty"`
	Config    int     `json:"config"`
	Seed      uint64  `json:"seed,omitempty"`
	Scenarios int64   `json:"scenarios"`
	Sectors   int     `json:"sectors,omitempty"`
	Workers   int     `json:"workers"`
	Tenant    string  `json:"tenant,omitempty"`
	Obligors  int     `json:"obligors,omitempty"`
	PD        float64 `json:"pd,omitempty"`
	Exposure  float64 `json:"exposure,omitempty"`
}

type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	SHA256 string `json:"sha256,omitempty"`
	// Observability echo: the server's trace id (must match the
	// traceparent this client sent), admission lane, and the per-phase
	// server-side timings the -phases breakdown aggregates.
	TraceID        string `json:"trace_id,omitempty"`
	Lane           string `json:"lane,omitempty"`
	QueueWaitUS    int64  `json:"queue_wait_us,omitempty"`
	ServiceUS      int64  `json:"service_us,omitempty"`
	AdmittedUnixUS int64  `json:"admitted_unix_us,omitempty"`
	StartedUnixUS  int64  `json:"started_unix_us,omitempty"`
	FinishedUnixUS int64  `json:"finished_unix_us,omitempty"`
}

func main() {
	url := flag.String("url", "", "base URL of the decwi-served API (required, e.g. http://127.0.0.1:8080)")
	kind := flag.String("kind", "generate", "job kind: generate or risk")
	requests := flag.Int("requests", 32, "total jobs to run")
	concurrency := flag.Int("concurrency", 4, "closed-loop client workers")
	cfgNum := flag.Int("config", 2, "kernel configuration 1-4 (Table I)")
	scenarios := flag.Int64("scenarios", 20000, "gamma values per sector (generate) or MC scenarios (risk)")
	sectors := flag.Int("sectors", 2, "number of financial sectors")
	workers := flag.Int("workers", 2, "engine workers per job")
	seedBase := flag.Uint64("seed-base", 1000, "job i uses seed seed-base+i")
	sameSeed := flag.Bool("same-seed", false, "every request uses seed-base itself — one replay tuple repeated, the cache-hot / dedup-storm workload")
	tenant := flag.String("tenant", "loadgen", "tenant label for quota accounting")
	replay := flag.Bool("replay", false, "determinism check: submit one spec twice and require byte-identical payloads")
	phases := flag.Bool("phases", false, "print a per-phase latency breakdown (submit RTT, queue wait, engine, download) from the server's job timings")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall per-job client deadline")
	flag.Parse()

	if *url == "" {
		fmt.Fprintln(os.Stderr, "decwi-loadgen: -url is required")
		flag.Usage()
		os.Exit(2)
	}
	// One persistent connection per worker: the harness must measure the
	// server, not TCP handshakes and TIME_WAIT churn. The default
	// transport keeps only 2 idle conns per host, so at concurrency 16
	// every closed-loop iteration would re-dial.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 2 * *concurrency
	tr.MaxIdleConnsPerHost = *concurrency
	lg := &loadgen{
		base:    strings.TrimRight(*url, "/"),
		client:  &http.Client{Timeout: 90 * time.Second, Transport: tr},
		timeout: *timeout,
	}
	spec := jobSpec{
		Kind: *kind, Config: *cfgNum, Scenarios: *scenarios,
		Sectors: *sectors, Workers: *workers, Tenant: *tenant,
	}
	if *kind == "risk" {
		spec.Sectors = *sectors
		spec.Obligors = 100
		spec.PD = 0.02
		spec.Exposure = 100
	}

	var err error
	if *replay {
		err = lg.replayCheck(spec, *seedBase)
	} else {
		err = lg.run(spec, runOpts{
			requests: *requests, concurrency: *concurrency,
			seedBase: *seedBase, sameSeed: *sameSeed, phases: *phases,
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "decwi-loadgen: %v\n", err)
		os.Exit(1)
	}
}

type loadgen struct {
	base    string
	client  *http.Client
	timeout time.Duration
	retried atomic.Int64 // 429/503 submissions retried after backoff
}

// newTraceparent mints a W3C traceparent header for one submission, so
// the server adopts the client's trace id instead of minting its own —
// the /debug/jobs lookup key is then known before the job id is.
func newTraceparent() string {
	// The low word is ORed with 1: an all-zero trace or parent id is
	// invalid per the spec and the server would mint its own instead.
	return fmt.Sprintf("00-%016x%016x-%016x-01",
		rand.Uint64(), rand.Uint64()|1, rand.Uint64()|1)
}

// traceIDOf extracts the 32-hex trace-id field of a traceparent.
func traceIDOf(traceparent string) string {
	return traceparent[3:35]
}

// submit POSTs the spec with the given traceparent, retrying 429/503
// after the server's Retry-After hint, and returns the accepted job's
// status.
func (lg *loadgen) submit(spec jobSpec, traceparent string) (jobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobStatus{}, err
	}
	endpoint := lg.base + "/v1/" + spec.Kind
	deadline := time.Now().Add(lg.timeout)
	for {
		req, err := http.NewRequest(http.MethodPost, endpoint, bytes.NewReader(body))
		if err != nil {
			return jobStatus{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("traceparent", traceparent)
		resp, err := lg.client.Do(req)
		if err != nil {
			return jobStatus{}, err
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return jobStatus{}, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st jobStatus
			if err := json.Unmarshal(respBody, &st); err != nil {
				return jobStatus{}, fmt.Errorf("decode accept body: %w", err)
			}
			return st, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			wait := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			// Jitter to [0.5·hint, 1.5·hint): every throttled worker got
			// the same Retry-After, and sleeping it verbatim re-collides
			// the whole herd on the admission queue one hint later.
			wait = wait/2 + time.Duration(rand.Int63n(int64(wait)))
			if time.Now().Add(wait).After(deadline) {
				return jobStatus{}, fmt.Errorf("POST %s: still %s at client deadline", endpoint, resp.Status)
			}
			lg.retried.Add(1)
			time.Sleep(wait)
		default:
			return jobStatus{}, fmt.Errorf("POST %s: %s: %s", endpoint, resp.Status, strings.TrimSpace(string(respBody)))
		}
	}
}

// await long-polls the job until it is terminal.
func (lg *loadgen) await(id string) (jobStatus, error) {
	deadline := time.Now().Add(lg.timeout)
	for {
		resp, err := lg.client.Get(lg.base + "/v1/jobs/" + id + "?wait=10s")
		if err != nil {
			return jobStatus{}, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return jobStatus{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return jobStatus{}, fmt.Errorf("GET job %s: %s", id, resp.Status)
		}
		var st jobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return jobStatus{}, err
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st, nil
		}
		if time.Now().After(deadline) {
			return jobStatus{}, fmt.Errorf("job %s still %s at client deadline", id, st.State)
		}
	}
}

// fetchResult downloads the payload and verifies the digest header.
func (lg *loadgen) fetchResult(id string) ([]byte, error) {
	resp, err := lg.client.Get(lg.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET result %s: %s: %s", id, resp.Status, strings.TrimSpace(string(payload)))
	}
	sum := sha256.Sum256(payload)
	if got, want := hex.EncodeToString(sum[:]), resp.Header.Get("X-Decwi-Sha256"); want != "" && got != want {
		return nil, fmt.Errorf("job %s: payload digest %s != advertised %s", id, got, want)
	}
	return payload, nil
}

func (lg *loadgen) remove(id string) {
	req, err := http.NewRequest(http.MethodDelete, lg.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := lg.client.Do(req); err == nil {
		resp.Body.Close()
	}
}

// jobPhases is one job's phase breakdown: submit and download are
// client-observed round trips; queue and engine are the server's own
// per-phase timings echoed through the job status.
type jobPhases struct {
	submit   time.Duration // POST round trip until 202 (incl. throttle retries)
	queue    time.Duration // server-reported admission→start wait
	engine   time.Duration // server-reported service (engine run) time
	download time.Duration // result GET round trip
	total    time.Duration // client-observed end-to-end latency
}

// oneJob runs a full submit → await → download → delete cycle and
// returns the payload plus the client-observed phase timings.
func (lg *loadgen) oneJob(spec jobSpec) ([]byte, jobPhases, error) {
	var ph jobPhases
	tp := newTraceparent()
	start := time.Now()
	st, err := lg.submit(spec, tp)
	if err != nil {
		return nil, ph, err
	}
	ph.submit = time.Since(start)
	// The server echoes the trace id it filed the job under; with
	// tracing on it must be the one this client minted (empty means
	// -flight 0, which is fine — there is just nothing to cross-check).
	if st.TraceID != "" && st.TraceID != traceIDOf(tp) {
		lg.remove(st.ID)
		return nil, ph, fmt.Errorf("job %s: server trace id %s, sent %s", st.ID, st.TraceID, traceIDOf(tp))
	}
	st, err = lg.await(st.ID)
	if err != nil {
		lg.remove(st.ID)
		return nil, ph, err
	}
	if st.State != "done" {
		lg.remove(st.ID)
		return nil, ph, fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
	}
	ph.queue = time.Duration(st.QueueWaitUS) * time.Microsecond
	ph.engine = time.Duration(st.ServiceUS) * time.Microsecond
	dlStart := time.Now()
	payload, err := lg.fetchResult(st.ID)
	ph.download = time.Since(dlStart)
	ph.total = time.Since(start)
	lg.remove(st.ID)
	if err != nil {
		return nil, ph, err
	}
	return payload, ph, nil
}

// replayCheck is the smoke-test mode: the same (seed, config) tuple
// submitted twice must come back bitwise identical.
func (lg *loadgen) replayCheck(spec jobSpec, seed uint64) error {
	spec.Seed = seed
	first, _, err := lg.oneJob(spec)
	if err != nil {
		return fmt.Errorf("replay run 1: %w", err)
	}
	second, _, err := lg.oneJob(spec)
	if err != nil {
		return fmt.Errorf("replay run 2: %w", err)
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("replay mismatch: %d vs %d bytes, payloads differ", len(first), len(second))
	}
	sum := sha256.Sum256(first)
	fmt.Printf("decwi-loadgen: replay OK — %s seed %d twice, %d bytes, sha256 %s\n",
		spec.Kind, seed, len(first), hex.EncodeToString(sum[:]))
	return nil
}

// phaseRow is one row of the latency table: the end-to-end latency, or
// one phase of the -phases breakdown.
type phaseRow struct {
	name           string
	p50, p99, mean float64
}

// phaseStats reduces one phase's samples to a table row.
func phaseStats(name string, samples []time.Duration) phaseRow {
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	quantile := func(q float64) time.Duration {
		return samples[int(q*float64(len(samples)-1))]
	}
	var total time.Duration
	for _, s := range samples {
		total += s
	}
	return phaseRow{
		name: name,
		p50:  float64(quantile(0.50).Microseconds()) / 1e3,
		p99:  float64(quantile(0.99).Microseconds()) / 1e3,
		mean: float64(total.Microseconds()) / float64(len(samples)) / 1e3,
	}
}

// runOpts parameterizes one measured load run.
type runOpts struct {
	requests    int
	concurrency int
	seedBase    uint64
	sameSeed    bool
	phases      bool
}

func (lg *loadgen) run(spec jobSpec, opt runOpts) error {
	requests, concurrency := opt.requests, opt.concurrency
	if requests < 1 || concurrency < 1 {
		return fmt.Errorf("-requests and -concurrency must be ≥ 1")
	}
	if concurrency > requests {
		concurrency = requests
	}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		phases    []jobPhases
		bytesIn   int64
		firstErr  error
	)
	next := make(chan uint64, requests)
	for i := 0; i < requests; i++ {
		if opt.sameSeed {
			next <- opt.seedBase
		} else {
			next <- opt.seedBase + uint64(i)
		}
	}
	close(next)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range next {
				s := spec
				s.Seed = seed
				payload, ph, err := lg.oneJob(s)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					latencies = append(latencies, ph.total)
					phases = append(phases, ph)
					bytesIn += int64(len(payload))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return firstErr
	}

	lat := phaseStats("latency", latencies)
	fmt.Printf("decwi-loadgen: %d %s jobs @ concurrency %d in %v\n", requests, spec.Kind, concurrency, wall.Round(time.Millisecond))
	fmt.Printf("  latency  p50 %.1fms  p99 %.1fms  mean %.1fms\n", lat.p50, lat.p99, lat.mean)
	fmt.Printf("  throughput %.2f jobs/s, %.2f MB/s payload (%d throttled retries)\n",
		float64(requests)/wall.Seconds(), float64(bytesIn)/1e6/wall.Seconds(), lg.retried.Load())
	if opt.phases {
		pick := func(name string, f func(jobPhases) time.Duration) phaseRow {
			samples := make([]time.Duration, len(phases))
			for i, ph := range phases {
				samples[i] = f(ph)
			}
			return phaseStats(name, samples)
		}
		fmt.Printf("  %-12s %9s %9s %9s\n", "phase", "p50", "p99", "mean")
		for _, row := range []phaseRow{
			pick("submit", func(p jobPhases) time.Duration { return p.submit }),
			pick("queue-wait", func(p jobPhases) time.Duration { return p.queue }),
			pick("engine", func(p jobPhases) time.Duration { return p.engine }),
			pick("download", func(p jobPhases) time.Duration { return p.download }),
			pick("total", func(p jobPhases) time.Duration { return p.total }),
		} {
			fmt.Printf("  %-12s %7.1fms %7.1fms %7.1fms\n", row.name, row.p50, row.p99, row.mean)
		}
	}
	return nil
}
