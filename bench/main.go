// Command decwi-bench is the decwi benchmark. It runs four workloads —
// two closed loops into the library facade, and two traffic mixes of HTTP
// jobs against decwi-served, each sent first as an open loop at a fixed
// rate and then in closed-loop rounds — each in a fresh child process,
// checks that every output is correct, and prints the end-to-end metrics,
// or with -trace the per-layer ledger, by name with their units. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 700, "failed": 0, "metrics": {...}}
//
// Usage, from the root of a checkout (see README.md):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds N] [-trace 0|1|FILE] [-json FILE]
//	bash bench/run.sh -compare A.json ... -- B.json ...
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// childEnv carries a runConfig, JSON-encoded, to a child process of the
// benchmark binary; its presence makes the process a child.
const childEnv = "DECWI_BENCH_CHILD"

// runConfig is everything a child needs to run one workload.
type runConfig struct {
	Mode     string // "run", or "setup": one call, then exit
	Workload string
	Seed     uint64
	Window   time.Duration // measured
	Warmup   time.Duration // untimed, before the window
	Trace    bool
	Served   string // the decwi-served binary
	// Setups is how many times set-up is measured, spread over the
	// window; setup_s is the median.
	Setups int
	// MinSamples is the fewest latencies a percentile may rest on.
	MinSamples int
}

// defaultWarmup precedes every measured window. Together with the window
// it sets a run's length, which BENCHMARK.json's time budget bounds: 92
// runs of a 30 s window, the warm-up and about 1 s of building, probes and
// stopping, plus two cold builds, must end within 57 minutes.
const defaultWarmup = 2 * time.Second

func main() {
	if cfg := os.Getenv(childEnv); cfg != "" {
		os.Exit(childMain(cfg, os.Stdout))
	}
	os.Exit(cliMain(os.Args[1:], os.Stdout))
}

func cliMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("decwi-bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Uint64("seed", 1, "workload seed: every tuple, arrival time and Zipf draw derives from it")
	seconds := fs.Int("seconds", 30, "measured seconds per workload, after the warm-up; BENCHMARK.json's run_seconds")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1: per-layer ledger; any other value: the ledger, with spans written to that file")
	jsonOut := fs.String("json", "", "write the results to this file, for -compare")
	compare := fs.Bool("compare", false, "compare result files: -compare A.json ... -- B.json ...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "decwi-bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "decwi-bench:", err)
			return 2
		}
		selected = []*workload{w}
	}
	spanFile := ""
	switch *trace {
	case "0", "1":
	default:
		spanFile = *trace
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "decwi-bench: -seconds must be at least 1")
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "decwi-bench:", err)
		return 1
	}
	served, err := buildServed(root, filepath.Join(root, ".bench_build"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "decwi-bench:", err)
		return 1
	}
	cfg := runConfig{
		Mode: "run", Seed: *seed,
		Window: time.Duration(*seconds) * time.Second, Warmup: defaultWarmup,
		Trace: *trace != "0", Served: served, Setups: 25, MinSamples: 100,
	}
	var results []*result
	for _, w := range selected {
		cfg.Workload = w.Name
		res, err := runChild(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "decwi-bench: %s: %v\n", w.Name, err)
			return 1
		}
		printResult(stdout, res, cfg)
		results = append(results, res)
	}
	if spanFile != "" {
		if err := writeSpans(spanFile, results); err != nil {
			fmt.Fprintln(os.Stderr, "decwi-bench:", err)
			return 1
		}
	}
	if *jsonOut != "" {
		if err := writeRunFile(*jsonOut, cfg, results); err != nil {
			fmt.Fprintln(os.Stderr, "decwi-bench:", err)
			return 1
		}
	}
	line, correct := summaryLine(results, cfg.Trace)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the decwi module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module github.com/decwi/decwi\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no decwi checkout above the working directory")
		}
		dir = parent
	}
}

// buildServed builds decwi-served from the checkout at root into dir. Its
// build time is not part of any metric.
func buildServed(root, dir string) (string, error) {
	out := filepath.Join(dir, "decwi-served")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/decwi-served")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build decwi-served: %w", err)
	}
	return out, nil
}

// runChild runs one workload in a fresh child process of this binary and
// returns the result it prints as its last line.
func runChild(cfg runConfig) (*result, error) {
	var stdout bytes.Buffer
	if err := spawnChild(cfg, &stdout).Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var res result
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

func spawnChild(cfg runConfig, stdout io.Writer) *exec.Cmd {
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	enc, _ := json.Marshal(cfg) // a runConfig always encodes
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(enc))
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	return cmd
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// childMain is the body of a child process.
func childMain(enc string, stdout io.Writer) int {
	var cfg runConfig
	if err := json.Unmarshal([]byte(enc), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "decwi-bench child:", err)
		return 2
	}
	w, err := workloadByName(cfg.Workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "decwi-bench child:", err)
		return 2
	}
	if cfg.Mode == "setup" {
		if err := setupCall(w, cfg.Seed); err != nil {
			fmt.Fprintln(os.Stderr, "decwi-bench child:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	var res *result
	if w.serve() {
		res, err = runServe(w, cfg)
	} else {
		res, err = runLib(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "decwi-bench child: %s: %v\n", w.Name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "decwi-bench child: %s: %v\n", w.Name, err)
		return 1
	}
	return 0
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Samples   int               `json:"samples"` // latencies behind each percentile
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Spans     []span            `json:"spans,omitempty"`
}

func newResult(w *workload, cfg runConfig) *result {
	return &result{
		Workload: w.Name, Seed: cfg.Seed, Correct: true,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}
}

// fail records a correctness failure; every failure makes the run
// incorrect and the command exit non-zero.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) e2e(name string, v float64)   { r.EndToEnd[name] = metric{v, unitOf(e2eDefs, name)} }
func (r *result) layer(name string, v float64) { r.PerLayer[name] = metric{v, unitOf(layerDefs, name)} }

type metricDef struct{ Name, Unit string }

// e2eDefs are the end-to-end metrics every workload reports, in the order
// BENCHMARK.json lists them.
var e2eDefs = []metricDef{
	{"throughput_mvalues_s", "Mvalues/s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// layerDefs are the per-layer metrics of a traced run, in the order
// BENCHMARK.json lists them. The bench.* figures are measured on every
// run. Goodput, latency, CPU, SLO and error rate vary too much between
// runs on a shared 2-vCPU host to carry a regression bound, or, at a
// fixed offered rate, read back that rate; the wall_* figures are the
// end-to-end ones before they are put at the reference host speed, which
// host_speed gives (see README.md).
var layerDefs = []metricDef{
	{"mt.fill_ns_per_word", "ns"},
	{"normal.fill_ns_per_candidate", "ns"},
	{"normal.valid_ratio", "ratio"},
	{"gamma.candidate_ns_per_candidate", "ns"},
	{"gamma.finish_ns_per_value", "ns"},
	{"gamma.cycleblock_ns_per_attempt", "ns"},
	{"gamma.trips_per_accept", "ratio"},
	{"gamma.block_residual_pct", "%"},
	{"core.newengine_us", "us"},
	{"core.runchunk_ns_per_value", "ns"},
	{"core.nonblock_ns_per_value", "ns"},
	{"parallel.sched_overhead_pct", "%"},
	{"parallel.efficiency_w2", "ratio"},
	{"parallel.chunk_imbalance", "ratio"},
	{"parallel.steals_per_call", "count"},
	{"facade.alloc_bytes_per_value", "B"},
	{"creditrisk.us_per_scenario", "us"},
	{"serve.validate_us", "us"},
	{"serve.inproc_hit_us_p50", "us"},
	{"serve.inproc_cold_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.service_ms_p50", "ms"},
	{"serve.lane_share.cache-hit", "ratio"},
	{"serve.lane_share.coalesced", "ratio"},
	{"serve.lane_share.fast-path", "ratio"},
	{"serve.lane_share.queued", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions_per_s", "1/s"},
	{"serve.dedup_coalesced_per_s", "1/s"},
	{"http.submit_ms_p50", "ms"},
	{"http.await_ms_p50", "ms"},
	{"http.download_ms_p50", "ms"},
	{"http.download_mb_s", "MiB/s"},
	{"http.overhead_ms_p50", "ms"},
	{"loadgen.send_lag_ms_p90", "ms"},
	{"loadgen.conn_wait_share", "ratio"},
	{"ledger.residual_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.goodput_jobs_s", "jobs/s"},
	{"bench.latency_p50_ms", "ms"},
	{"bench.latency_p90_ms", "ms"},
	{"bench.cpu_ms_per_request", "ms"},
	{"bench.slo_met_ratio", "ratio"},
	{"bench.error_rate", "ratio"},
	{"bench.wall_throughput_mvalues_s", "Mvalues/s"},
	{"bench.wall_setup_s", "s"},
	{"bench.host_speed", "ratio"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: undeclared metric " + name)
}

func printResult(w io.Writer, r *result, cfg runConfig) {
	fmt.Fprintf(w, "%s  seed %d, %v measured after %v warm-up\n", r.Workload, r.Seed, cfg.Window, cfg.Warmup)
	show := func(defs []metricDef, got map[string]metric) {
		for _, d := range defs {
			if m, ok := got[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	show(e2eDefs, r.EndToEnd)
	show(layerDefs, r.PerLayer)
	fmt.Fprintf(w, "  correct %v, attempted %d, failed %d, %d latency samples\n", r.Correct, r.Attempted, r.Failed, r.Samples)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// summaryLine is the final JSON line. With one workload its metrics are
// that workload's; with several, each name carries a "workload/" prefix.
func summaryLine(results []*result, trace bool) (string, bool) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		ms := r.EndToEnd
		if trace {
			ms = r.PerLayer
		}
		for name, m := range ms {
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = m
		}
	}
	b, _ := json.Marshal(out) // maps of finite floats always encode
	return string(b), out.Correct
}

// runEnv is what two runs must share to be compared.
type runEnv struct {
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	CPU        string             `json:"cpu"`
	WarmupS    float64            `json:"warmup_s"`
	WindowS    float64            `json:"window_s"`
	Rates      map[string]float64 `json:"rates"`
}

func currentEnv(cfg runConfig) runEnv {
	rates := map[string]float64{}
	for _, w := range workloads {
		if w.serve() {
			rates[w.Name] = w.Rate
		}
	}
	return runEnv{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: cpuModel(),
		WarmupS: cfg.Warmup.Seconds(), WindowS: cfg.Window.Seconds(), Rates: rates,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runFile is the -json output, the input of -compare.
type runFile struct {
	Env     runEnv    `json:"env"`
	Results []*result `json:"results"`
}

func writeRunFile(path string, cfg runConfig, results []*result) error {
	rf := runFile{Env: currentEnv(cfg)}
	for _, r := range results {
		c := *r
		c.Spans = nil
		rf.Results = append(rf.Results, &c)
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
