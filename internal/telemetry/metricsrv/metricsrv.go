// Package metricsrv is the live observability plane of the decoupled
// work-item stack: an HTTP server exposing a telemetry.Recorder as
// Prometheus text exposition plus JSON snapshots, so a multi-gigabyte
// generation run can be watched — and profiled — while it executes,
// instead of only through post-hoc trace files.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition format: every registered
//	               counter, gauge and histogram (cumulative buckets),
//	               with # HELP / # TYPE derived from Name/Unit/Desc.
//	/healthz       liveness probe; "ok\n", 200.
//	/snapshot      JSON dump of the instruments, including per-histogram
//	               p50/p90/p99/max and the delta of every counter since
//	               the previous /snapshot scrape (long runs watch rates,
//	               not lifetime totals; counters only add, so a delta is
//	               never negative).
//	/debug/pprof/  the standard net/http/pprof handlers (CPU, heap,
//	               goroutine, ...), mounted on this server's private mux
//	               — not the process-global DefaultServeMux.
//
// Lifecycle: Serve binds the listener synchronously (so the caller can
// print the resolved ephemeral address before the run starts) and
// serves in a background goroutine; Close performs a context-bounded
// graceful Shutdown and joins that goroutine, so a completed run leaks
// nothing (asserted by the same goroutine-count pattern the parallel
// scheduler's leak test uses).
package metricsrv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"github.com/decwi/decwi/internal/telemetry"
)

// Server is one observability endpoint bound to one recorder.
type Server struct {
	rec *telemetry.Recorder

	mu       sync.Mutex
	prev     map[string]int64 // counter name → value at the previous /snapshot
	health   func() (ok bool, reason string)
	slo      func() any
	listener net.Listener
	srv      *http.Server
	done     chan struct{} // closed when the serve goroutine exits
}

// SetHealth installs a liveness hook consulted by /healthz: when it
// reports unhealthy, the probe answers 503 with "degraded: <reason>"
// instead of "ok" — the serve path wires its SLO burn-rate evaluation
// here. nil (the default) restores the unconditional "ok".
func (s *Server) SetHealth(h func() (ok bool, reason string)) {
	s.mu.Lock()
	s.health = h
	s.mu.Unlock()
}

// SetSLO installs a hook whose return value is embedded in /snapshot
// under "slo" (omitted when nil or when the hook returns nil) — the
// serve path supplies its multi-window burn-rate Status.
func (s *Server) SetSLO(f func() any) {
	s.mu.Lock()
	s.slo = f
	s.mu.Unlock()
}

// New builds a server for rec (which must be non-nil: a disabled
// recorder has nothing to serve; CLIs create the recorder when the
// -http flag asks for the server).
func New(rec *telemetry.Recorder) (*Server, error) {
	if rec == nil {
		return nil, errors.New("metricsrv: nil recorder")
	}
	return &Server{rec: rec, prev: map[string]int64{}}, nil
}

// Handler returns the server's mux: /metrics, /healthz, /snapshot and
// /debug/pprof. Exposed for tests; Serve wires it into the listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	// The pprof handlers are registered explicitly on the private mux:
	// importing net/http/pprof for side effects would pollute the
	// process-global DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteExposition(w, s.rec)
}

// handleHealthz is the liveness probe. Without a health hook it answers
// exactly "ok\n" (the contract TestSmokeServed/Healthz asserts); with
// one installed, an unhealthy report degrades the probe to 503 so a
// load balancer or smoke gate sees SLO burn without parsing /snapshot.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	health := s.health
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if health != nil {
		if ok, reason := health(); !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "degraded: %s\n", reason)
			return
		}
	}
	fmt.Fprintln(w, "ok")
}

// snapshotBody is the /snapshot JSON shape.
type snapshotBody struct {
	Counters   []counterJSON `json:"counters"`
	Gauges     []gaugeJSON   `json:"gauges"`
	Histograms []histJSON    `json:"histograms"`
	// SLO carries the serving layer's objective status (slo.Status) when
	// a hook is installed via SetSLO; omitted otherwise. Typed any so
	// metricsrv does not depend on the slo package.
	SLO any `json:"slo,omitempty"`
}

type counterJSON struct {
	Name  string `json:"name"`
	Unit  string `json:"unit,omitempty"`
	Value int64  `json:"value"`
	// Delta is the increase since the previous /snapshot scrape (equal
	// to Value on the first scrape): long runs watch rates, not totals.
	Delta int64 `json:"delta"`
}

type gaugeJSON struct {
	Name  string `json:"name"`
	Unit  string `json:"unit,omitempty"`
	Value int64  `json:"value"`
}

type histJSON struct {
	Name  string `json:"name"`
	Unit  string `json:"unit,omitempty"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	var body snapshotBody
	s.mu.Lock()
	sloFn := s.slo
	for _, c := range s.rec.Counters() {
		v := c.Value()
		body.Counters = append(body.Counters, counterJSON{
			Name: c.Name(), Unit: c.Unit(), Value: v, Delta: v - s.prev[c.Name()],
		})
		s.prev[c.Name()] = v
	}
	s.mu.Unlock()
	for _, g := range s.rec.Gauges() {
		body.Gauges = append(body.Gauges, gaugeJSON{Name: g.Name(), Unit: g.Unit(), Value: g.Value()})
	}
	for _, h := range s.rec.Histograms() {
		sn := h.Snapshot()
		body.Histograms = append(body.Histograms, histJSON{
			Name: sn.Name, Unit: sn.Unit, Count: sn.Count, Sum: sn.Sum,
			Max: sn.Max, P50: sn.P50, P90: sn.P90, P99: sn.P99,
		})
	}
	if sloFn != nil {
		body.SLO = sloFn()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

// Serve binds addr (":0" selects an ephemeral port) and starts serving
// in a background goroutine. The returned address is the resolved bound
// address — print it before a long run so a scraper can attach.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("metricsrv: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.srv != nil {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("metricsrv: already serving")
	}
	s.listener = ln
	s.srv = &http.Server{Handler: s.Handler()}
	s.done = make(chan struct{})
	srv, done := s.srv, s.done
	s.mu.Unlock()
	go func() {
		defer close(done)
		// ErrServerClosed is the normal Shutdown outcome.
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("metricsrv: serve: %v\n", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Close gracefully shuts the server down, bounded by ctx, and joins the
// serve goroutine — after Close returns no goroutine of this server is
// left running. Safe to call before Serve (no-op) and more than once.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	srv, done := s.srv, s.done
	s.srv, s.done, s.listener = nil, nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Shutdown(ctx)
	if err != nil {
		// Shutdown timed out: force-close the remaining connections so
		// the serve goroutine still exits and nothing leaks.
		srv.Close()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		return errors.New("metricsrv: serve goroutine did not exit")
	}
	return err
}
