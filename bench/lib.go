package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	decwi "github.com/decwi/decwi"
)

// verifyEvery picks the lib calls recomputed through decwi.Generate and
// compared bit for bit; every call gets the structural check.
const verifyEvery = 8

// setupCall is the whole life of a set-up child: the workload's first
// library call.
func setupCall(w *workload, seed uint64) error {
	if w.serve() {
		return fmt.Errorf("%s has no library set-up call", w.Name)
	}
	s := w.shape(seed)
	_, err := decwi.GenerateParallel(s.Config, s.options(seed))
	return err
}

// libSetup measures one set-up: from spawning a fresh child process to
// its first GenerateParallel returning.
func libSetup(cfg runConfig) (time.Duration, error) {
	cfg.Mode = "setup"
	cmd := spawnChild(cfg, nil)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	took := time.Since(start)
	if werr := cmd.Wait(); werr != nil || err != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up child: %q, %v, %v", line, err, werr)
	}
	return took, nil
}

// libCalls are the calls of one closed-loop window: one caller repeats
// the workload's call with seed+i until the window ends. With a span log,
// every other call is traced.
type libCalls struct {
	lat        [2][]float64 // ms per call: [0] untraced, [1] traced
	throughput []float64    // Mvalues/s per call, in call order
	ends       []time.Time  // when each call returned
	good       int          // verified calls within the latency limit
	busy, cpu  time.Duration
	failed     int
}

func (c *libCalls) all() []float64 { return append(slices.Clone(c.lat[0]), c.lat[1]...) }

// runLibCalls runs the closed loop for d. With a clock and set-ups, it
// samples the host's speed after every call and makes the set-ups between
// calls.
func runLibCalls(r *result, w *workload, shape genShape, seed uint64, next *uint64, d time.Duration, spans *spanLog, clock *hostClock, setups *setupSampler) *libCalls {
	c := &libCalls{}
	for end := time.Now().Add(d); time.Now().Before(end); {
		if setups != nil {
			setups.between()
		}
		i := *next
		*next++
		traced := spans != nil && i%2 == 1
		opt := shape.options(seed + i)
		cpu0 := processCPU()
		t0 := time.Now()
		res, err := decwi.GenerateParallel(shape.Config, opt)
		took := time.Since(t0)
		c.cpu += processCPU() - cpu0
		c.throughput = append(c.throughput, float64(shape.values())/took.Seconds()/1e6)
		c.ends = append(c.ends, t0.Add(took))
		if clock != nil {
			clock.sample()
		}
		if traced {
			spans.add("facade.GenerateParallel", 0, t0, took, int64(i))
			c.lat[1] = append(c.lat[1], ms(took))
		} else {
			c.lat[0] = append(c.lat[0], ms(took))
		}
		c.busy += took
		if err == nil {
			err = checkValues(res.Values, shape.values())
		}
		if err == nil && i%verifyEvery == 0 {
			ref, rerr := decwi.Generate(shape.Config, opt.GenerateOptions)
			switch {
			case rerr != nil:
				err = rerr
			case !sameBits(res.Values, ref.Values):
				err = fmt.Errorf("GenerateParallel and Generate differ")
			}
		}
		if err != nil {
			c.failed++
			r.fail("call %d: %v", i, err)
			continue
		}
		if took <= w.Limit {
			c.good++
		}
	}
	return c
}

// runLib runs a lib workload in this (child) process. A traced run's
// end-to-end numbers include its traced calls.
func runLib(w *workload, cfg runConfig) (*result, error) {
	r := newResult(w, cfg)
	shape := w.shape(cfg.Seed)
	var next uint64
	runLibCalls(r, w, shape, cfg.Seed, &next, cfg.Warmup, nil, nil, nil) // its failures still fail the run
	var spans *spanLog
	if cfg.Trace {
		spans = newSpanLog()
	}
	clock := newHostClock()
	setups := newSetupSampler(cfg.Setups, cfg.Window, func() (time.Duration, error) { return libSetup(cfg) })
	c := runLibCalls(r, w, shape, cfg.Seed, &next, cfg.Window, spans, clock, setups)
	if err := setups.finish(); err != nil {
		return nil, err
	}
	hwm, err := peakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}

	lat := c.all()
	r.Attempted, r.Failed, r.Samples = len(lat), c.failed, len(lat)
	reportSpeed(r, clock, c.throughput, c.ends, setups)
	r.e2e("peak_rss_mb", hwm)
	r.layer("bench.goodput_jobs_s", float64(c.good)/c.busy.Seconds())
	r.layer("bench.latency_p50_ms", percentile(lat, 0.5))
	r.layer("bench.latency_p90_ms", percentile(lat, 0.9))
	r.layer("bench.cpu_ms_per_request", ms(c.cpu)/float64(len(lat)))
	r.layer("bench.slo_met_ratio", float64(c.good)/float64(r.Attempted))
	r.layer("bench.error_rate", float64(r.Failed)/float64(r.Attempted))
	checkSamples(r, cfg, len(lat))

	for i, spec := range w.probes {
		s := w.shape(spec.Seed)
		res, err := decwi.GenerateParallel(s.Config, s.options(spec.Seed))
		if err != nil {
			r.fail("probe %d: %v", i+1, err)
			continue
		}
		checkProbe(r, i, spec, encodeLE(res.Values))
		if i == 0 {
			v := s.Variance
			if s.Variances != nil {
				v = s.Variances[0]
			}
			if _, p, err := decwi.ValidateGamma(res.Sector(0), v); err != nil || !(p > ksMinP) {
				r.fail("probe 1: sector 0 KS p-value %g (want > %g), %v", p, ksMinP, err)
			}
		}
	}

	if cfg.Trace {
		r.layer("bench.trace_overhead_pct", overheadPct(c.lat[1], c.lat[0]))
		lg, err := runLedger(shape, cfg, spans)
		if err != nil {
			return nil, err
		}
		lg.report(r, shape)
		// The layers add up to the ledger's own GenerateParallel; the
		// residual is what the timed loop's calls spent beyond them. Both
		// sides are least-disturbed estimates: the ledger's fastest rounds
		// against the loop's fastest call. A quantile of the loop's calls
		// would move with the share of them the host slowed down.
		e2e := slices.Min(lat) * 1e6 / float64(shape.values())
		r.layer("ledger.residual_pct", 100*(e2e-lg.sumNsPerValue())/e2e)
		if err := serveBurst(r, w, shape, cfg, spans); err != nil {
			return nil, err
		}
		r.Spans = spans.all()
	}
	return r, nil
}

// checkSamples fails a run whose percentiles rest on too few latencies.
func checkSamples(r *result, cfg runConfig, n int) {
	if n < cfg.MinSamples {
		r.fail("only %d latency samples, need %d for p90", n, cfg.MinSamples)
	}
}

// processCPU is this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is a process's VmHWM in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
