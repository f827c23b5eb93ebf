package metricsrv

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/decwi/decwi/internal/telemetry"
)

// Flags bundles the standard observability flags every decwi CLI
// exposes (-http, -http-linger). Register them with RegisterFlags
// before flag.Parse; the six binaries share this struct so their flag
// names, defaults and help text can never drift apart.
type Flags struct {
	// Addr is the -http listen address ("" disables the server).
	Addr string
	// Linger is -http-linger: how long the server outlives the run.
	Linger time.Duration
}

// RegisterFlags installs the shared observability flags on fs
// (flag.CommandLine in the CLIs) and returns the struct their parsed
// values land in.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Addr, "http", "", "serve live metrics on this address (e.g. :9090; \"\" disables)")
	fs.DurationVar(&f.Linger, "http-linger", 0, "keep the metrics server up this long after the run finishes")
	return f
}

// Recorder returns a fresh metrics-only recorder (span budget 0) when
// the server is enabled, nil otherwise — the create-iff--http convention
// every CLI used to hand-roll. CLIs that want a run trace too (a
// non-zero budget) build their own recorder and ignore this helper.
func (f *Flags) Recorder() *telemetry.Recorder {
	if f.Addr == "" {
		return nil
	}
	return telemetry.New(0)
}

// Start is the shared -http plumbing of the cmd/ binaries. When -http
// is set it binds the observability server for rec, announces the
// resolved endpoint on stderr (":0" selects an ephemeral port, so the
// printed address is how a scraper finds the run), and returns the
// server for CLIs that install hooks on it (SetHealth, SetSLO) plus a
// stop function for the end of the run. stop lingers for -http-linger
// first, so a scrape at the end of a short run still lands, then shuts
// the server down gracefully and joins its goroutine; a run that exits
// through stop leaks nothing. Without -http, srv is nil, stop is a
// no-op and rec may be nil.
func (f *Flags) Start(prog string, rec *telemetry.Recorder) (srv *Server, stop func() error, err error) {
	if f.Addr == "" {
		return nil, func() error { return nil }, nil
	}
	srv, err = New(rec)
	if err != nil {
		return nil, nil, err
	}
	bound, err := srv.Serve(f.Addr)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: metrics on http://%s/metrics (also /healthz /snapshot /debug/pprof)\n", prog, bound)
	return srv, func() error {
		if f.Linger > 0 {
			time.Sleep(f.Linger)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Close(ctx)
	}, nil
}
