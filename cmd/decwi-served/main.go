// Command decwi-served exposes the decoupled work-item gamma engine as
// a long-running HTTP/JSON job service — gamma-as-a-service for the
// case study's two workloads:
//
//	POST /v1/generate            submit a gamma-generation job (202 + job id)
//	POST /v1/risk                submit a CreditRisk+ portfolio job
//	GET  /v1/jobs/{id}           job status (add ?wait=5s to long-poll)
//	GET  /v1/jobs/{id}/result    download the payload (float32 LE / JSON)
//	DELETE /v1/jobs/{id}         cancel a live job or evict a finished one
//
// Admission control is a bounded queue with per-tenant token-bucket
// quotas: saturation answers 429 with Retry-After instead of queueing
// unboundedly. Results are deterministic — resubmitting the same
// (seed, config) tuple streams back bitwise-identical bytes, equal to
// the library's sequential Generate output.
//
// That determinism powers the serve fast lane: completed results are
// cached by the canonical digest of their replay tuple (-cache-bytes,
// -cache-tenant-bytes) and repeat submissions are answered without an
// engine run, and concurrent identical submissions coalesce onto one
// shared execution. Every other job takes the queue.
//
// SIGTERM/SIGINT starts a graceful drain: new submissions get 503,
// queued and running jobs finish, and if any API request was open
// when the drain began or began during it, the API stays up for
// collectGrace, so clients whose long-polls the drain answered can
// request their results (all bounded by -drain-timeout). Then the
// listener and metrics server shut down, downloads in progress
// complete, and the process exits 0.
//
// Usage:
//
//	decwi-served -addr :8080 -http :9090
//	decwi-served -addr 127.0.0.1:0 -executors 4 -quota-rate 50
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"log/slog"

	"github.com/decwi/decwi/internal/serve"
	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/flight"
	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "API listen address (host:port; port 0 selects an ephemeral port)")
	queueDepth := flag.Int("queue-depth", 64, "admission queue capacity; a full queue answers 429")
	executors := flag.Int("executors", 2, "concurrent job executors")
	defaultTimeout := flag.Duration("default-timeout", 60*time.Second, "per-job deadline when the request sets no timeout_ms")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant admissions per second (0 disables quotas)")
	quotaBurst := flag.Int("quota-burst", 8, "per-tenant token-bucket burst size")
	retainJobs := flag.Int("retain-jobs", 1024, "finished job records (and payloads) kept before FIFO eviction")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget before in-flight jobs are aborted")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "deterministic result cache budget in bytes (0 disables caching)")
	cacheTenantBytes := flag.Int64("cache-tenant-bytes", 0, "per-tenant result cache byte cap (0 selects cache-bytes/4)")
	flightN := flag.Int("flight", 256, "flight-recorder ring: per-job traces retained for /debug/jobs (0 disables tracing)")
	flightPinned := flag.Int("flight-pinned", 64, "slow/failed traces pinned past ring eviction")
	flightSlow := flag.Duration("flight-slow", 250*time.Millisecond, "jobs at or over this duration are pinned in the flight recorder")
	sloLatency := flag.Duration("slo-latency", 500*time.Millisecond, "per-job latency objective; done jobs slower than this (or failed jobs) burn error budget (0 disables the SLO plane)")
	sloTarget := flag.Float64("slo-target", 0.99, "objective success ratio in (0,1)")
	sloShort := flag.Duration("slo-window-short", 5*time.Minute, "short burn-rate window")
	sloLong := flag.Duration("slo-window-long", time.Hour, "long burn-rate window")
	logLevel := flag.String("log-level", "info", "structured JSON log level on stderr: debug, info, warn, error, off")
	injectExecDelay := flag.Duration("inject-exec-delay", 0, "fault injection: pause every engine run this long (exercises the SLO plane; 0 in production)")
	mflags := metricsrv.RegisterFlags(flag.CommandLine)
	flag.Parse()

	logger, err := buildLogger(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decwi-served: %v\n", err)
		os.Exit(1)
	}

	scfg := serve.Config{
		QueueDepth:       *queueDepth,
		Executors:        *executors,
		DefaultTimeout:   *defaultTimeout,
		QuotaRate:        *quotaRate,
		QuotaBurst:       *quotaBurst,
		RetainJobs:       *retainJobs,
		CacheBytes:       *cacheBytes,
		CacheTenantBytes: *cacheTenantBytes,
		Logger:           logger,
		SLOLatency:       *sloLatency,
		SLOTarget:        *sloTarget,
		SLOShortWindow:   *sloShort,
		SLOLongWindow:    *sloLong,
		ExecDelay:        *injectExecDelay,
	}
	// The flag's "0 disables" spelling maps onto the Config's "negative
	// disables" (whose 0 means "default 64 MiB").
	if *cacheBytes == 0 {
		scfg.CacheBytes = -1
	}
	if *sloLatency == 0 {
		scfg.SLOLatency = -1
	}
	if *flightN > 0 {
		scfg.Flight = flight.New(*flightN, *flightPinned, *flightSlow)
	}

	if err := run(*addr, scfg, *drainTimeout, mflags); err != nil {
		fmt.Fprintf(os.Stderr, "decwi-served: %v\n", err)
		os.Exit(1)
	}
}

// buildLogger maps -log-level onto a JSON slog handler on stderr, or
// nil (logging off) for "off". Structured records go to stderr next to
// the human announce lines — scripts sed the announce lines and jq/grep
// the JSON, and neither stream pollutes a piped stdout payload.
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "off", "none":
		return nil, nil
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (debug, info, warn, error, off)", level)
	}
	return slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// collectGrace keeps the API listening after a drain that answered
// requests: a client whose long-poll the drain answered comes straight
// back for the result, and a listener closed at once refuses that
// download. The drain grants it when a request was open at the signal
// or began while the drain ran.
const collectGrace = 250 * time.Millisecond

func run(addr string, scfg serve.Config, drainTimeout time.Duration,
	mflags *metricsrv.Flags) error {
	// The service always records its scheduler telemetry, whether or not
	// the -http observability server is up: the instruments are cheap
	// and a later scrape should see history, not a cold start.
	rec := telemetry.New(0)
	msrv, stopMetrics, err := mflags.Start("decwi-served", rec)
	if err != nil {
		return err
	}

	scfg.Telemetry = rec
	sched := serve.New(scfg)
	if msrv != nil {
		// /healthz degrades (503) while both SLO burn windows are hot, and
		// /snapshot embeds the objective status under "slo".
		msrv.SetHealth(sched.SLOHealth)
		msrv.SetSLO(func() any {
			st := sched.SLOStatus()
			if st.Name == "" { // SLO plane disabled (-slo-latency 0)
				return nil
			}
			return st
		})
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Announce the resolved address on stderr — with port 0 this line is
	// how the smoke tests and the bench/ harness find the API.
	fmt.Fprintf(os.Stderr, "decwi-served: API on http://%s (POST /v1/generate /v1/risk, GET /v1/jobs/{id})\n", ln.Addr())

	api := serve.NewServer(sched).Handler()
	var open atomic.Int64  // API requests in progress
	var begun atomic.Int64 // API requests ever begun
	var freshMu sync.Mutex
	fresh := map[net.Conn]bool{} // connections that have sent no request yet
	httpSrv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			begun.Add(1)
			open.Add(1)
			defer open.Add(-1)
			api.ServeHTTP(w, r)
		}),
		ConnState: func(c net.Conn, st http.ConnState) {
			freshMu.Lock()
			defer freshMu.Unlock()
			if st == http.StateNew {
				fresh[c] = true
			} else {
				delete(fresh, c)
			}
		},
	}
	// Shutdown closes idle connections at once but waits 5 s for one
	// that has sent no request yet, such as a client's spare dial, and
	// then fails the drain. Such a connection holds no work: close it
	// with the idle ones.
	httpSrv.RegisterOnShutdown(func() {
		freshMu.Lock()
		defer freshMu.Unlock()
		for c := range fresh {
			c.Close()
		}
	})
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stopSignals()
	var openAtSignal, begunAtSignal int64
	select {
	case <-sigCtx.Done():
		openAtSignal, begunAtSignal = open.Load(), begun.Load()
		fmt.Fprintf(os.Stderr, "decwi-served: signal received, draining (budget %v)\n", drainTimeout)
	case err := <-serveErr:
		sched.Drain(context.Background())
		stopMetrics()
		return fmt.Errorf("http server: %w", err)
	}
	stopSignals() // a second signal now kills the process the default way

	// Drain order matters: first stop admitting and let queued + running
	// jobs finish (new submissions see 503 immediately), then give the
	// clients whose requests the drain answered — open at the signal or
	// begun during the drain — a grace to request their results, and
	// only then shut the listener down. By that point every job is
	// terminal, so lingering long-polls resolve instead of holding
	// connections open, and Shutdown waits for the downloads.
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := sched.Drain(drainCtx)
	if openAtSignal > 0 || begun.Load() != begunAtSignal {
		grace := time.NewTimer(collectGrace)
		select {
		case <-drainCtx.Done():
		case <-grace.C:
		}
		grace.Stop()
	}

	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) && drainErr == nil {
		drainErr = err
	}
	if err := stopMetrics(); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintln(os.Stderr, "decwi-served: drained, exiting")
	return nil
}
