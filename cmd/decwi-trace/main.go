// Command decwi-trace runs one of the paper's four kernel configurations
// (Table I) with cycle-level telemetry enabled and emits two artifacts:
//
//   - a Chrome trace_event JSON file (load it in chrome://tracing or
//     https://ui.perfetto.dev) with the OpenCL command queue, the
//     dataflow processes, the hls::stream blocking spans and the
//     cycle-accurate co-simulation lanes on separate clock domains;
//   - a plain-text stall-attribution report ranking which stream or
//     loop-carried dependency cost the most cycles.
//
// With -job the tool switches sides: instead of running a kernel it
// renders one serve-path job's flight-recorder trace — fetched from a
// live decwi-served /debug/jobs/{id} endpoint or read from a saved
// JSON file — into the same Chrome trace_event format, after running
// the full schema/containment validation on it.
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
	shards := flag.Int("shards", 0, "parallel: target work-item chunk count (0 = GOMAXPROCS)")
	workers := flag.Int("workers", 0, "parallel: concurrent scheduler workers (0 = GOMAXPROCS)")
	chunkWI := flag.Int("chunk", 0, "parallel: work-items per chunk (0 = even split across shards)")
	tracePath := flag.String("trace", "decwi-trace.json", "output path for the Chrome trace_event JSON")
	reportPath := flag.String("report", "", "output path for the stall-attribution report (default: stdout)")
	ringCap := flag.Int("events", telemetry.DefaultRingCap, "event ring capacity (oldest events overwritten beyond this)")
	jobSrc := flag.String("job", "", "render a serve-path job trace instead of running a kernel: a /debug/jobs/{id} URL or a saved trace JSON file")
	mflags := metricsrv.RegisterFlags(flag.CommandLine)
	flag.Parse()

	var err error
	if *jobSrc != "" {
		err = runJob(*jobSrc, *tracePath)
	} else {
		err = run(*cfgNum, *scenarios, *sectors, *workItems, *seed,
			*cosimQuota, *tracePath, *reportPath, *ringCap,
			*parallel, *shards, *workers, *chunkWI, mflags)
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
	// Validate before rendering: a malformed span tree (negative times,
	// a child outside its parent) should fail the tool, not produce a
	// silently wrong flame graph.
	spans, err := flight.CheckTraceJSON(body)
	if err != nil {
		return fmt.Errorf("invalid job trace: %w", err)
	}
	var tj flight.TraceJSON
	if err := json.Unmarshal(body, &tj); err != nil {
		return err
	}
	out, err := tj.ChromeTrace()
	if err != nil {
		return err
	}
	if err := os.WriteFile(tracePath, out, 0o644); err != nil {
		return err
	}
	lane := tj.Lane
	if lane == "" {
		lane = "unknown"
	}
	fmt.Printf("decwi-trace: job %s trace %s — lane %s, state %s, %d spans, %dus\n",
		tj.JobID, tj.TraceID, lane, tj.State, spans, tj.DurationUS)
	fmt.Printf("chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", tracePath)
	return nil
}

func run(cfgNum int, scenarios int64, sectors, workItems int, seed uint64,
	cosimQuota int64, tracePath, reportPath string, ringCap int,
	parallel bool, shards, workers, chunkWI int, mflags *metricsrv.Flags) error {
	if cfgNum < 1 || cfgNum > 4 {
		return fmt.Errorf("-config must be 1..4, got %d", cfgNum)
	}
	cfg := decwi.ConfigID(cfgNum)
	info, err := cfg.Describe()
	if err != nil {
		return err
	}
	kernels := []perf.KernelConfig{perf.Config1, perf.Config2, perf.Config3, perf.Config4}
	k := kernels[cfgNum-1]

	// decwi-trace needs the event ring for its trace artifacts, so it
	// builds its own recorder instead of the metrics-only Flags.Recorder.
	rec := telemetry.New(ringCap)
	stopMetrics, err := mflags.Start("decwi-trace", rec)
	if err != nil {
		return err
	}
	defer stopMetrics()

	// Pass 1: the full OpenCL host path — command-queue spans, dataflow
	// process lifecycles, hls::stream blocking, per-work-item rejection
	// and feed-stream counters.
	sess, err := decwi.NewSession("FPGA")
	if err != nil {
		return err
	}
	sess.SetTelemetry(rec)
	kr, err := sess.EnqueueGamma(cfg, decwi.GenerateOptions{
		Scenarios: scenarios, Sectors: sectors,
		WorkItems: workItems, Seed: seed,
	}, false)
	if err != nil {
		sess.Close()
		return err
	}
	if err := sess.Close(); err != nil {
		return err
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
			return err
		}
		cosim = &res
	}

	// Pass 3 (optional): the work-stealing parallel host path — per-chunk
	// EvChunk spans plus the scheduler counters the stall report's
	// "Parallel scheduler" section attributes.
	var pres *decwi.ParallelResult
	if parallel {
		pres, err = decwi.GenerateParallel(cfg, decwi.ParallelOptions{
			GenerateOptions: decwi.GenerateOptions{
				Scenarios: scenarios, Sectors: sectors,
				WorkItems: workItems, Seed: seed,
				Telemetry: rec,
			},
			Shards: shards, Workers: workers, ChunkWorkItems: chunkWI,
		})
		if err != nil {
			return err
		}
	}

	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	out := os.Stdout
	if reportPath != "" {
		rf, err := os.Create(reportPath)
		if err != nil {
			return err
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
		return err
	}
	fmt.Fprintf(out, "\nchrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", tracePath)
	return nil
}
