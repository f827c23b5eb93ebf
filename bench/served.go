package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/decwi/decwi/internal/serve"
	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

// server is one decwi-served process with its default flags, bound to
// ephemeral loopback ports for the API and the metrics plane.
type server struct {
	cmd          *exec.Cmd
	api, metrics string // base URLs
	logsDone     chan struct{}
}

var (
	apiLine     = regexp.MustCompile(`API on (http://\S+)`)
	metricsLine = regexp.MustCompile(`metrics on (http://\S+)/metrics`)
)

// startServer spawns decwi-served and waits for it to announce both
// addresses. Its JSON logs are read and discarded, so it never blocks on
// a full pipe.
func startServer(path string) (*server, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-http", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, logsDone: make(chan struct{})}
	found := make(chan struct{})
	go func() {
		defer close(s.logsDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := apiLine.FindStringSubmatch(sc.Text()); m != nil {
				s.api = m[1]
			}
			if m := metricsLine.FindStringSubmatch(sc.Text()); m != nil {
				s.metrics = m[1]
			}
			if s.api != "" && s.metrics != "" {
				close(found)
				break
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case <-found:
		return s, nil
	case <-s.logsDone:
	case <-time.After(30 * time.Second):
	}
	_ = cmd.Process.Kill()
	<-s.logsDone
	_ = cmd.Wait()
	return nil, errors.New("decwi-served did not announce its addresses")
}

// stop drains the server with SIGTERM and requires a clean exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { <-s.logsDone; done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("decwi-served exit: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("decwi-served did not drain within 60s")
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux this runs on.
const clockTick = 10 * time.Millisecond

// serverCPU is a process's user plus system CPU time.
func serverCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// utime and stime are fields 14 and 15; the command name in field 2
	// may hold spaces, so count from its closing parenthesis.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// serverStats is a reading of the server's CPU time and cache counters.
type serverStats struct {
	at       time.Time
	cpu      time.Duration
	counters map[string]int64
}

var serverCounters = []string{"serve.cache.hits", "serve.cache.misses", "serve.cache.evictions", "serve.dedup.coalesced"}

func readServerStats(hc *http.Client, s *server) (serverStats, error) {
	st := serverStats{at: time.Now(), counters: map[string]int64{}}
	cpu, err := serverCPU(s.pid())
	if err != nil {
		return st, err
	}
	st.cpu = cpu
	resp, err := hc.Get(s.metrics + "/snapshot")
	if err != nil {
		return st, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, err
	}
	for _, name := range serverCounters {
		v, _, err := metricsrv.SnapshotCounterValue(body, name)
		if err != nil {
			return st, err
		}
		st.counters[name] = v
	}
	return st, nil
}

// newClient allows conns keep-alive connections per host: the load never
// holds more connections than it has request goroutines.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   time.Minute, // a hung server must not outlast the run's time cap
	}
}

// jobRecord is one HTTP job of an open loop.
type jobRecord struct {
	arrival
	lag                     time.Duration // how late the generator ran
	connWait                time.Duration // waiting for a free connection
	submit, await, download time.Duration
	latency                 time.Duration // from the due time to the last payload byte
	status                  serve.JobStatus
	headerSHA               string // X-Decwi-Sha256 of the download
	bytes                   int
	sha                     string // of the downloaded payload
	err                     error
	traced                  bool
}

// doJob fetches one job and then checks it.
func doJob(hc *http.Client, base string, rec *jobRecord, body *bytes.Buffer, stopClock func(), spans *spanLog, parent int) {
	fetchJob(hc, base, rec, body, stopClock, spans, parent)
	checkJob(hc, base, rec, body.Bytes())
}

// fetchJob submits, long-polls and downloads one job into body, recording
// a span per round trip under parent. The clock stops at the last payload
// byte; the digest check and the DELETE (checkJob) come after it.
func fetchJob(hc *http.Client, base string, rec *jobRecord, body *bytes.Buffer, stopClock func(), spans *spanLog, parent int) {
	spec, err := json.Marshal(rec.Spec)
	if err != nil {
		rec.err = err
		return
	}
	t0 := time.Now()
	resp, err := hc.Post(base+"/v1/"+string(rec.Spec.Kind), "application/json", bytes.NewReader(spec))
	if err != nil {
		rec.err = err
		return
	}
	st, err := decodeStatus(resp, http.StatusAccepted)
	t1 := time.Now()
	rec.submit = t1.Sub(t0)
	spans.add("http.submit", parent, t0, rec.submit, 0)
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return
	}
	for !st.State.Terminal() { // a fast-path job or a cache hit is done at once
		resp, err := hc.Get(base + "/v1/jobs/" + st.ID + "?wait=30s")
		if err != nil {
			rec.err = err
			return
		}
		if st, err = decodeStatus(resp, http.StatusOK); err != nil {
			rec.err = fmt.Errorf("await: %w", err)
			return
		}
	}
	t2 := time.Now()
	rec.await = t2.Sub(t1)
	spans.add("http.await", parent, t1, rec.await, 0)
	rec.status = st
	if st.State != serve.StateDone {
		rec.err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		return
	}
	resp, err = hc.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		rec.err = err
		return
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	rec.download = time.Since(t2)
	stopClock()
	spans.add("http.download", parent, t2, rec.download, 0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		rec.err = err
		return
	}
	rec.headerSHA = resp.Header.Get("X-Decwi-Sha256")
}

// checkJob checks a fetched payload against its digests and length, and
// deletes the job from the server.
func checkJob(hc *http.Client, base string, rec *jobRecord, payload []byte) {
	if rec.err != nil {
		return
	}
	st := rec.status
	sum := sha256.Sum256(payload)
	rec.sha = hex.EncodeToString(sum[:])
	rec.bytes = len(payload)
	switch {
	case rec.sha != rec.headerSHA || rec.sha != st.SHA256:
		rec.err = fmt.Errorf("job %s: payload sha256 %s, header %s, status %s", st.ID, rec.sha, rec.headerSHA, st.SHA256)
	case rec.Spec.Kind == serve.KindGenerate && int64(rec.bytes) != 4*rec.Spec.Scenarios*int64(rec.Spec.Sectors):
		rec.err = fmt.Errorf("job %s: %d payload bytes", st.ID, rec.bytes)
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+st.ID, nil)
	var resp *http.Response
	if err == nil {
		resp, err = hc.Do(req)
	}
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
	}
	if err != nil && rec.err == nil {
		rec.err = fmt.Errorf("delete %s: %w", st.ID, err)
	}
}

func decodeStatus(resp *http.Response, want int) (serve.JobStatus, error) {
	defer resp.Body.Close()
	var st serve.JobStatus
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return st, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// loadConns is the number of request goroutines, each holding one
// keep-alive connection: nproc of the box the rates were calibrated on.
const loadConns = 2

// loadRun is an open loop against a running server, with the server's
// CPU time and counters read as the window opens and after its last job.
type loadRun struct {
	recs        []jobRecord
	first, last serverStats
}

// runLoad sends the arrivals at their due times. An arrival that finds
// no free request goroutine waits for one and keeps its due time. With a
// span log, every other job is traced.
func runLoad(s *server, arrivals []arrival, spans *spanLog) (*loadRun, error) {
	hc := newClient(loadConns)
	defer hc.CloseIdleConnections()
	lr := &loadRun{recs: make([]jobRecord, len(arrivals))}
	type dispatch struct {
		i         int
		due, woke time.Time
	}
	// Room for every arrival: the generator never blocks on a busy
	// connection, so its lag and the connection wait stay apart.
	work := make(chan dispatch, len(arrivals))
	var wg sync.WaitGroup
	for c := 0; c < loadConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body bytes.Buffer
			for d := range work {
				rec := &lr.recs[d.i]
				rec.arrival = arrivals[d.i]
				rec.lag = d.woke.Sub(d.due)
				rec.connWait = time.Since(d.woke)
				rec.traced = spans != nil && d.i%2 == 1
				var log *spanLog
				if rec.traced {
					log = spans
				}
				job := log.open("job", 0, d.due, int64(d.i))
				log.add("loadgen.send-lag", job, d.due, rec.lag, 0)
				log.add("loadgen.conn-wait", job, d.woke, rec.connWait, 0)
				doJob(hc, s.api, rec, &body, func() { rec.latency = time.Since(d.due) }, log, job)
				log.close(job, d.due.Add(rec.latency))
			}
		}()
	}

	statsHC := newClient(1)
	defer statsHC.CloseIdleConnections()
	var firstErr error
	var firstRead sync.WaitGroup
	start := time.Now()
	opened := false
	for i, a := range arrivals {
		due := start.Add(a.Due)
		sleepUntil(due)
		if a.Measured && !opened {
			opened = true
			firstRead.Add(1)
			go func() {
				defer firstRead.Done()
				lr.first, firstErr = readServerStats(statsHC, s)
			}()
		}
		work <- dispatch{i: i, due: due, woke: time.Now()}
	}
	close(work)
	wg.Wait()
	firstRead.Wait()
	var lastErr error
	lr.last, lastErr = readServerStats(statsHC, s)
	return lr, errors.Join(firstErr, lastErr)
}

// spinWindow is the stretch before a due time that sleepUntil spins
// through: the runtime's poller sleeps in whole milliseconds, so
// time.Sleep alone wakes up to a millisecond late.
const spinWindow = 1100 * time.Microsecond

func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// jobs returns the records of the measured window, traced or untraced.
func (lr *loadRun) jobs(traced bool) []*jobRecord {
	var out []*jobRecord
	for i := range lr.recs {
		if j := &lr.recs[i]; j.Measured && j.traced == traced {
			out = append(out, j)
		}
	}
	return out
}

func (lr *loadRun) measured() []*jobRecord { return append(lr.jobs(false), lr.jobs(true)...) }

// serveSetup measures one set-up: spawning decwi-served, waiting for its
// /healthz, and running one probe job through it. The server is stopped
// after the clock.
func serveSetup(path string, probe serve.JobSpec) (time.Duration, error) {
	start := time.Now()
	s, err := startServer(path)
	if err != nil {
		return 0, err
	}
	err = firstJob(s, probe)
	took := time.Since(start)
	if err := errors.Join(err, s.stop()); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return took, nil
}

func firstJob(s *server, probe serve.JobSpec) error {
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(250 * time.Microsecond) {
		resp, err := hc.Get(s.metrics + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return errors.New("decwi-served never reported healthy")
		}
	}
	_, err := oneJob(hc, s, probe)
	return err
}

// oneJob runs one job outside any load and returns its payload.
func oneJob(hc *http.Client, s *server, spec serve.JobSpec) ([]byte, error) {
	rec := jobRecord{arrival: arrival{Spec: spec}}
	var body bytes.Buffer
	doJob(hc, s.api, &rec, &body, func() {}, nil, 0)
	return body.Bytes(), rec.err
}

// openShare is the share of a serve workload's window that the open loop
// takes; the closed-loop rounds, which give the bounded throughput, take
// the rest. 7.5 s of a 30 s window still give the open loop 150 cold-mix
// latencies, past the 100 a p90 needs.
const openShare = 0.25

// minRounds is the fewest closed-loop rounds a run makes, however short
// its window.
const minRounds = 4

// runServe runs a serve workload in this (child) process: the probes, an
// open loop at the workload's fixed rate for latency, then closed-loop
// rounds for throughput, with the set-ups spread over the rounds. A
// traced run's end-to-end numbers include its traced jobs.
func runServe(w *workload, cfg runConfig) (*result, error) {
	r := newResult(w, cfg)
	s, err := startServer(cfg.Served)
	if err != nil {
		return nil, err
	}
	hwm, err := loadServer(r, w, cfg, s)
	if serr := s.stop(); serr != nil {
		r.fail("%v", serr)
	}
	if err != nil {
		return nil, err
	}
	r.e2e("peak_rss_mb", hwm)
	return r, nil
}

// loadServer drives a running server through a serve workload and returns
// its peak RSS.
func loadServer(r *result, w *workload, cfg runConfig, s *server) (float64, error) {
	if err := firstJob(s, w.probes[0]); err != nil {
		return 0, err
	}
	hc := newClient(1)
	for i, spec := range w.probes {
		if got, err := oneJob(hc, s, spec); err != nil {
			r.fail("probe %d: %v", i+1, err)
		} else {
			checkProbe(r, i, spec, got)
		}
	}
	hc.CloseIdleConnections()

	var spans *spanLog
	if cfg.Trace {
		spans = newSpanLog()
	}
	open := time.Duration(openShare * float64(cfg.Window))
	lr, err := runLoad(s, schedule(w.Rate, w.traffic, cfg.Seed, cfg.Warmup, open), spans)
	if err != nil {
		return 0, err
	}
	clock := newHostClock()
	setups := newSetupSampler(cfg.Setups, cfg.Window-open, func() (time.Duration, error) {
		return serveSetup(cfg.Served, w.probes[0])
	})
	rounds := runRounds(s, w, cfg.Seed, cfg.Window-open, clock, setups, spans)
	if err := setups.finish(); err != nil {
		return 0, err
	}
	hwm, err := peakRSS(s.pid())
	if err != nil {
		return 0, err
	}
	for _, j := range lr.recs {
		if !j.Measured && j.err != nil {
			r.fail("warm-up job: %v", j.err)
		}
	}

	lat, good := tally(r, w, lr.measured())
	tally(r, w, rounds.jobs)
	r.Samples = len(lat)
	reportSpeed(r, clock, rounds.throughput, rounds.ends, setups)
	// The open loop's window closes when its last job's last byte arrives.
	var end time.Duration
	for _, j := range lr.measured() {
		end = max(end, j.Due+j.latency)
	}
	r.layer("bench.goodput_jobs_s", float64(good)/(end-cfg.Warmup).Seconds())
	r.layer("bench.latency_p50_ms", percentile(lat, 0.5))
	r.layer("bench.latency_p90_ms", percentile(lat, 0.9))
	r.layer("bench.cpu_ms_per_request", ms(lr.last.cpu-lr.first.cpu)/float64(len(lr.measured())))
	r.layer("bench.slo_met_ratio", float64(good)/float64(len(lr.measured())))
	r.layer("bench.error_rate", float64(r.Failed)/float64(r.Attempted))
	checkSamples(r, cfg, len(lat))
	checkLag(r, lr.measured(), percentile(lat, 0.5))
	verifySample(r, append(lr.measured(), rounds.jobs...), cfg.Seed)

	if cfg.Trace {
		r.layer("bench.trace_overhead_pct", overheadPct(latencies(lr.jobs(true)), latencies(lr.jobs(false))))
		deployedLayers(r, lr)
		r.layer("ledger.residual_pct", clientResidualPct(lr.measured()))
		shape := w.shape(cfg.Seed)
		lg, err := runLedger(shape, cfg, spans)
		if err != nil {
			return 0, err
		}
		lg.report(r, shape)
		r.Spans = spans.all()
	}
	return hwm, nil
}

// closedRounds are the rounds of a serve workload's closed-loop phase.
type closedRounds struct {
	throughput []float64   // Mvalues/s per round
	ends       []time.Time // when each round's last byte arrived
	jobs       []*jobRecord
}

// runRounds is the closed-loop phase of a serve workload. Each round is
// w.Round fresh jobs of the workload's traffic, sent over the loadConns
// connections: a connection sends its next job once its last one is
// downloaded, and the next round starts once the whole round is. Rounds
// run for length, and at least minRounds. A round's clock stops at its
// last payload byte; the digest checks and DELETEs come after it, then a
// sample of the host's speed while the server is idle, and the set-ups
// whose turn has come.
func runRounds(s *server, w *workload, seed uint64, length time.Duration, clock *hostClock, setups *setupSampler, spans *spanLog) *closedRounds {
	hc := newClient(loadConns)
	defer hc.CloseIdleConnections()
	rnd := rand.New(rand.NewPCG(seed, streamRounds))
	bodies := make([]bytes.Buffer, w.Round) // reused by every round
	cr := &closedRounds{}
	for end := time.Now().Add(length); len(cr.throughput) < minRounds || time.Now().Before(end); {
		setups.between()
		specs := w.traffic(rnd, seed, 1<<20+len(cr.throughput)*w.Round, w.Round)
		recs := make([]jobRecord, len(specs))
		work := make(chan int, len(specs))
		for i, spec := range specs {
			recs[i].arrival = arrival{Spec: spec}
			work <- i
		}
		close(work)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < loadConns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					sent := time.Now()
					fetchJob(hc, s.api, &recs[i], &bodies[i], func() { recs[i].latency = time.Since(sent) }, nil, 0)
				}
			}()
		}
		wg.Wait()
		took := time.Since(start)
		spans.add("closed.round", 0, start, took, int64(len(cr.throughput)))
		var values int64
		for i := range recs {
			checkJob(hc, s.api, &recs[i], bodies[i].Bytes())
			if recs[i].Spec.Kind == serve.KindGenerate {
				values += recs[i].Spec.Scenarios * int64(recs[i].Spec.Sectors)
			}
			cr.jobs = append(cr.jobs, &recs[i])
		}
		cr.throughput = append(cr.throughput, float64(values)/took.Seconds()/1e6)
		cr.ends = append(cr.ends, start.Add(took))
		clock.sample()
	}
	return cr
}

// tally counts the jobs into r's attempted and failed totals and returns
// the latencies (ms) of the verified jobs and how many met the latency
// limit. A failed job misses the limit.
func tally(r *result, w *workload, jobs []*jobRecord) (lat []float64, good int) {
	for _, j := range jobs {
		r.Attempted++
		if j.err != nil {
			r.Failed++
			r.fail("%v", j.err)
			continue
		}
		lat = append(lat, ms(j.latency))
		if j.latency <= w.Limit {
			good++
		}
	}
	return lat, good
}

// latencies are the verified jobs' latencies in ms.
func latencies(jobs []*jobRecord) []float64 {
	var out []float64
	for _, j := range jobs {
		if j.err == nil {
			out = append(out, ms(j.latency))
		}
	}
	return out
}

// checkLag warns when the load generator ran late by more than a tenth of
// the median latency at p90: the open loop's latencies are then the
// generator's, not the server's. That happens when other tenants take the
// host's vCPUs. It does not make the run incorrect: the outputs are still
// checked, and the bounded metrics come from the closed-loop rounds,
// which have no schedule to fall behind.
func checkLag(r *result, jobs []*jobRecord, p50 float64) {
	var lags []float64
	for _, j := range jobs {
		lags = append(lags, ms(j.lag))
	}
	if p90 := percentile(lags, 0.9); p90 > 0.1*p50 {
		fmt.Fprintf(os.Stderr, "decwi-bench: %s seed %d: open-loop latencies are not valid: load generator lag p90 %.3f ms exceeds a tenth of the %.3f ms latency p50\n",
			r.Workload, r.Seed, p90, p50)
	}
}

// verifyCount is how many downloaded payloads of a run are recomputed
// in process and compared by digest.
const verifyCount = 6

func verifySample(r *result, jobs []*jobRecord, seed uint64) {
	var done []*jobRecord
	for _, j := range jobs {
		if j.err == nil {
			done = append(done, j)
		}
	}
	if len(done) == 0 {
		return
	}
	rnd := rand.New(rand.NewPCG(seed, streamVerify))
	for k := 0; k < verifyCount; k++ {
		j := done[rnd.IntN(len(done))]
		want, err := referencePayload(j.Spec)
		if err != nil {
			r.fail("verify %s: %v", j.status.ID, err)
		} else if sha(want) != j.sha {
			r.fail("job %s: payload differs from its in-process reference", j.status.ID)
		}
	}
}

// deployedLayers reports the server's layers as a client sees them: the
// status JSON of each job and the counter deltas over the window.
func deployedLayers(r *result, lr *loadRun) {
	var queue, service, submit, await, download, overhead, lag []float64
	var payload, dlSeconds, latency, connWait float64
	lanes := map[string]float64{}
	jobs := lr.measured()
	var done float64
	for _, j := range jobs {
		lag = append(lag, ms(j.lag))
		if j.err != nil {
			continue
		}
		done++
		q := float64(j.status.QueueWaitUS) / 1e3
		sv := float64(j.status.ServiceUS) / 1e3
		queue, service = append(queue, q), append(service, sv)
		submit, await, download = append(submit, ms(j.submit)), append(await, ms(j.await)), append(download, ms(j.download))
		overhead = append(overhead, ms(j.submit+j.await+j.download)-q-sv)
		payload += float64(j.bytes)
		dlSeconds += j.download.Seconds()
		latency += j.latency.Seconds()
		connWait += j.connWait.Seconds()
		lanes[j.status.Lane]++
	}
	r.layer("serve.queue_wait_ms_p50", percentile(queue, 0.5))
	r.layer("serve.queue_wait_ms_p90", percentile(queue, 0.9))
	r.layer("serve.service_ms_p50", percentile(service, 0.5))
	for _, lane := range []string{"cache-hit", "coalesced", "fast-path", "queued"} {
		r.layer("serve.lane_share."+lane, ratio(lanes[lane], done))
	}
	delta := func(name string) float64 { return float64(lr.last.counters[name] - lr.first.counters[name]) }
	span := lr.last.at.Sub(lr.first.at).Seconds()
	hits, misses := delta("serve.cache.hits"), delta("serve.cache.misses")
	r.layer("serve.cache_hit_ratio", ratio(hits, hits+misses))
	r.layer("serve.cache_evictions_per_s", ratio(delta("serve.cache.evictions"), span))
	r.layer("serve.dedup_coalesced_per_s", ratio(delta("serve.dedup.coalesced"), span))
	r.layer("http.submit_ms_p50", percentile(submit, 0.5))
	r.layer("http.await_ms_p50", percentile(await, 0.5))
	r.layer("http.download_ms_p50", percentile(download, 0.5))
	r.layer("http.download_mb_s", ratio(payload/(1<<20), dlSeconds))
	r.layer("http.overhead_ms_p50", percentile(overhead, 0.5))
	r.layer("loadgen.send_lag_ms_p90", percentile(lag, 0.9))
	r.layer("loadgen.conn_wait_share", ratio(connWait, latency))
}

// clientResidualPct is the share of the client's latency that no span
// covers: the latency minus generator lag, connection wait and the three
// round trips.
func clientResidualPct(jobs []*jobRecord) float64 {
	var total, covered float64
	for _, j := range jobs {
		if j.err == nil {
			total += j.latency.Seconds()
			covered += (j.lag + j.connWait + j.submit + j.await + j.download).Seconds()
		}
	}
	return 100 * ratio(total-covered, total)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serveBurst gives a lib workload the serve and HTTP layers of its own
// shape: a short open loop of distinct jobs against decwi-served.
func serveBurst(r *result, w *workload, shape genShape, cfg runConfig, spans *spanLog) error {
	s, err := startServer(cfg.Served)
	if err != nil {
		return err
	}
	if err := firstJob(s, w.probes[0]); err != nil {
		_ = s.stop()
		return err
	}
	const burstRate = 10
	traffic := func(_ *rand.Rand, seed uint64, first, n int) []serve.JobSpec {
		out := make([]serve.JobSpec, n)
		for i := range out {
			out[i] = shape.spec(jobSeed(seed, 1<<21+first+i), "")
		}
		return out
	}
	length := min(max(cfg.Window/10, 500*time.Millisecond), 2*time.Second)
	lr, err := runLoad(s, schedule(burstRate, traffic, cfg.Seed, 0, length), spans)
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	for _, j := range lr.measured() {
		if j.err != nil {
			r.fail("serve burst: %v", j.err)
		}
	}
	deployedLayers(r, lr)
	return nil
}
