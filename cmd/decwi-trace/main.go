// Command decwi-trace runs one of the paper's four kernel configurations
// (Table I) with cycle-level telemetry enabled and emits two artifacts:
//
//   - a Chrome trace_event JSON file (load it in chrome://tracing or
//     https://ui.perfetto.dev) of the run trace: the OpenCL command
//     queue, the kernel run and its work-items' sector loops, the
//     cycle-accurate co-simulation's lanes and memory channel (the
//     model of Listing 1's streams and Transfer engines) and (with
//     -parallel) the scheduler's chunks, one trace process per clock,
//     plus every counter's final value on a "counters" track;
//   - a plain-text stall-attribution report ranking which stream or
//     loop-carried dependency cost the most cycles.
//
// The run trace keeps at most -events spans; spans past that budget
// are dropped and counted in the report.
//
// With -job the tool switches sides: instead of running a kernel it
// renders one serve-path job's flight-recorder trace — fetched from a
// live decwi-served /debug/jobs/{id} endpoint or read from a saved
// JSON file. Both modes validate the trace with flight.CheckTraceJSON
// and render it through the same exporter.
//
// Usage:
//
//	decwi-trace -config 3
//	decwi-trace -config 1 -scenarios 50000 -sectors 4 -trace t.json -report r.txt
//	decwi-trace -config 2 -cosim-quota 0       # skip the co-simulation pass
//	decwi-trace -job http://127.0.0.1:8080/debug/jobs/job-000042 -trace job.json
//	decwi-trace -job saved-trace.json -trace job.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/fpga"
	"github.com/decwi/decwi/internal/perf"
	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/flight"
	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

func main() {
	cfgNum := flag.Int("config", 3, "kernel configuration 1-4 (Table I)")
	scenarios := flag.Int64("scenarios", 20000, "gamma values per sector")
	sectors := flag.Int("sectors", 2, "number of financial sectors")
	workItems := flag.Int("workitems", 0, "override decoupled work-items (0 = place-and-route outcome)")
	seed := flag.Uint64("seed", 1, "master seed")
	cosimQuota := flag.Int64("cosim-quota", 4096, "values per work-item for the cycle-accurate co-simulation pass (0 = skip)")
	parallel := flag.Bool("parallel", false, "also run the work-stealing parallel host path and attribute its chunk scheduling")
	workers := flag.Int("workers", 0, "parallel: concurrent scheduler workers (0 = GOMAXPROCS)")
	chunkWI := flag.Int("chunk", 0, "parallel: work-items per chunk (0 = even split over GOMAXPROCS)")
	tracePath := flag.String("trace", "decwi-trace.json", "output path for the Chrome trace_event JSON")
	reportPath := flag.String("report", "", "output path for the stall-attribution report (default: stdout)")
	budget := flag.Int("events", 1<<16, "span budget of the run trace (spans past it are dropped and counted)")
	jobSrc := flag.String("job", "", "render a serve-path job trace instead of running a kernel: a /debug/jobs/{id} URL or a saved trace JSON file")
	mflags := metricsrv.RegisterFlags(flag.CommandLine)
	flag.Parse()

	var err error
	if *jobSrc != "" {
		err = runJob(*jobSrc, *tracePath)
	} else {
		_, err = run(*cfgNum, *scenarios, *sectors, *workItems, *seed,
			*cosimQuota, *tracePath, *reportPath, *budget,
			*parallel, *workers, *chunkWI, mflags)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "decwi-trace: %v\n", err)
		os.Exit(1)
	}
}

// fetchURL GETs a URL and returns its body, failing on non-200.
func fetchURL(url string) ([]byte, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// runJob is the -job mode: validate one flight-recorder trace (fetched
// or read from disk) and render it to Chrome trace_event JSON. A
// /debug/jobs listing URL is also accepted — the newest retained trace
// is picked, so "-job http://host/debug/jobs" traces the last job.
func runJob(src, tracePath string) error {
	var body []byte
	var err error
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		body, err = fetchURL(src)
		if err != nil {
			return err
		}
		if n, lerr := flight.CheckJobsJSON(body); lerr == nil {
			// A listing, not a single trace: follow the newest entry.
			if n == 0 {
				return fmt.Errorf("%s lists no retained traces", src)
			}
			var listing flight.JobsJSON
			if err := json.Unmarshal(body, &listing); err != nil {
				return err
			}
			body, err = fetchURL(strings.TrimRight(src, "/") + "/" + listing.Jobs[0].TraceID)
			if err != nil {
				return err
			}
		}
	} else {
		body, err = os.ReadFile(src)
		if err != nil {
			return err
		}
	}
	tj, err := writeChrome(body, tracePath)
	if err != nil {
		return err
	}
	lane := tj.Lane
	if lane == "" {
		lane = "unknown"
	}
	fmt.Printf("decwi-trace: job %s trace %s — lane %s, state %s, %d spans, %dus\n",
		tj.JobID, tj.TraceID, lane, tj.State, len(tj.Spans), tj.DurationUS)
	fmt.Printf("chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", tracePath)
	return nil
}

// writeChrome validates a trace body and writes its Chrome trace_event
// rendering to path. Validation comes first: a malformed span tree
// (negative times, a child outside its parent or on another clock)
// should fail the tool, not produce a silently wrong flame graph.
func writeChrome(body []byte, path string) (flight.TraceJSON, error) {
	var tj flight.TraceJSON
	if _, err := flight.CheckTraceJSON(body); err != nil {
		return tj, fmt.Errorf("invalid trace: %w", err)
	}
	if err := json.Unmarshal(body, &tj); err != nil {
		return tj, err
	}
	out, err := tj.ChromeTrace()
	if err != nil {
		return tj, err
	}
	return tj, os.WriteFile(path, out, 0o644)
}

// recordCounters adds every counter's final value to the run trace as a
// zero-length span on the "counters" track, stamped at the end of its
// clock's timeline: cycle counters on the cycle clock, the rest on the
// wall clock.
func recordCounters(rec *telemetry.Recorder) {
	tr := rec.Trace()
	var cycleEnd int64
	for _, s := range tr.Snapshot().Spans {
		if s.Clock == flight.CycleClock && s.EndUS > cycleEnd {
			cycleEnd = s.EndUS
		}
	}
	wallEnd := tr.Now()
	for _, c := range rec.Counters() {
		s := flight.Span{Track: "counters", Name: c.Name(), Arg: c.Value(),
			Detail: fmt.Sprintf("%d %s", c.Value(), c.Unit()), StartUS: wallEnd, EndUS: wallEnd}
		if c.Unit() == "cycles" {
			s.Clock, s.StartUS, s.EndUS = flight.CycleClock, cycleEnd, cycleEnd
		}
		tr.Put(s)
	}
}

// run is the kernel mode. It returns the recorder, whose run trace and
// counters hold everything the artifacts were rendered from.
func run(cfgNum int, scenarios int64, sectors, workItems int, seed uint64,
	cosimQuota int64, tracePath, reportPath string, budget int,
	parallel bool, workers, chunkWI int, mflags *metricsrv.Flags) (*telemetry.Recorder, error) {
	if cfgNum < 1 || cfgNum > 4 {
		return nil, fmt.Errorf("-config must be 1..4, got %d", cfgNum)
	}
	if budget < 1 {
		return nil, fmt.Errorf("-events must be at least 1, got %d", budget)
	}
	cfg := decwi.ConfigID(cfgNum)
	info, err := cfg.Describe()
	if err != nil {
		return nil, err
	}
	kernels := []perf.KernelConfig{perf.Config1, perf.Config2, perf.Config3, perf.Config4}
	k := kernels[cfgNum-1]

	// decwi-trace needs the run trace for its trace artifact, so it
	// builds its own recorder instead of the metrics-only Flags.Recorder.
	rec := telemetry.New(budget)
	_, stopMetrics, err := mflags.Start("decwi-trace", rec)
	if err != nil {
		return nil, err
	}
	defer stopMetrics()

	// Pass 1: the full OpenCL host path — command-queue spans, the
	// kernel span, per-work-item sector spans, rejection and feed-stream
	// counters.
	sess, err := decwi.NewSession("FPGA")
	if err != nil {
		return nil, err
	}
	sess.SetTelemetry(rec)
	kr, err := sess.EnqueueGamma(cfg, decwi.GenerateOptions{
		Scenarios: scenarios, Sectors: sectors,
		WorkItems: workItems, Seed: seed,
	}, false)
	if err != nil {
		sess.Close()
		return nil, err
	}
	if err := sess.Close(); err != nil {
		return nil, err
	}

	// Pass 2: the cycle-accurate co-simulation — per-lane II-stall
	// bubbles and memory-controller burst transactions on the cycle
	// clock domain.
	var cosim *fpga.CoSimResult
	if cosimQuota > 0 {
		wi := workItems
		if wi == 0 {
			wi = k.FPGAWorkItems
		}
		res, err := fpga.RunCoSim(fpga.CoSimConfig{
			WorkItems: wi, Quota: cosimQuota,
			Transform: k.Transform, MTParams: k.MTParams, Variance: 1.39,
			Seed: seed, Telemetry: rec,
		})
		if err != nil {
			return nil, err
		}
		cosim = &res
	}

	// Pass 3 (optional): the work-stealing parallel host path — per-chunk
	// spans plus the scheduler counters the stall report's "Parallel
	// scheduler" section attributes.
	var pres *decwi.ParallelResult
	if parallel {
		pres, err = decwi.GenerateParallel(cfg, decwi.ParallelOptions{
			GenerateOptions: decwi.GenerateOptions{
				Scenarios: scenarios, Sectors: sectors,
				WorkItems: workItems, Seed: seed,
				Telemetry: rec,
			},
			Workers: workers, ChunkWorkItems: chunkWI,
			Trace: rec.Trace(),
		})
		if err != nil {
			return nil, err
		}
	}

	recordCounters(rec)
	rec.Trace().Finish("done", "")
	body, err := json.Marshal(rec.Trace().Snapshot())
	if err != nil {
		return nil, err
	}
	if _, err := writeChrome(body, tracePath); err != nil {
		return nil, err
	}

	out := os.Stdout
	if reportPath != "" {
		rf, err := os.Create(reportPath)
		if err != nil {
			return nil, err
		}
		defer rf.Close()
		out = rf
	}

	fmt.Fprintf(out, "decwi-trace: %s (%s, MT%d, %d work-items)\n",
		info.Name, info.Transform, info.MTExponent, info.FPGAWorkItems)
	fmt.Fprintf(out, "workload: %d scenarios x %d sectors, seed %d\n", scenarios, sectors, seed)
	fmt.Fprintf(out, "modelled device time %v, read-back %v (%d request)\n",
		kr.DeviceTime, kr.ReadTime, kr.ReadRequests)
	if cosim != nil {
		fmt.Fprintf(out, "cosim: %d cycles, %d bursts, overlap %.1f%%, %.2f GB/s effective\n",
			cosim.Cycles, cosim.Bursts, 100*cosim.OverlapFraction(), cosim.EffectiveBandwidthGBs)
	}
	if pres != nil {
		fmt.Fprintf(out, "parallel: %d chunks on %d workers, %d stolen, chunk imbalance %.2fx\n",
			pres.Chunks, pres.Workers, pres.Steals, pres.ChunkImbalance)
	}
	fmt.Fprintln(out)
	if err := rec.WriteStallReport(out); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "\nchrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", tracePath)
	return rec, nil
}
