package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/decwi/decwi/internal/serve"
	"github.com/decwi/decwi/internal/telemetry/flight"
	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

// TestJobModeTrace drives `decwi-trace -job <api>/debug/jobs` against a
// serve API with the flight recorder on: the listing's newest trace is
// fetched, validated and rendered to a Chrome trace_event file.
func TestJobModeTrace(t *testing.T) {
	sched := serve.New(serve.Config{Executors: 1, Flight: flight.New(8, 2, time.Second)})
	ts := httptest.NewServer(serve.NewServer(sched).Handler())
	defer func() {
		ts.Close()
		if err := sched.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json",
		bytes.NewReader([]byte(`{"config":2,"seed":5,"scenarios":2000,"workers":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for !st.State.Terminal() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "?wait=10s")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	tracePath := filepath.Join(t.TempDir(), "job.json")
	if err := runJob(ts.URL+"/debug/jobs", tracePath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Fatalf("not a Chrome trace_event file (%v): %.200s", err, raw)
	}
}

// TestKernelModeTrace drives kernel mode the way
// `decwi-trace -config 3 -parallel -cosim-quota 256` does: the run
// trace passes CheckTraceJSON, the Chrome file has one process per
// clock, it holds exactly one chunk span per chunk the run reports,
// and every counter's final value is on its "counters" track.
func TestKernelModeTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	reportPath := filepath.Join(dir, "report.txt")
	rec, err := run(3, 20000, 2, 0, 1, 256, tracePath, reportPath, 1<<16,
		true, 0, 0, &metricsrv.Flags{})
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(rec.Trace().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flight.CheckTraceJSON(body); err != nil {
		t.Fatalf("run trace fails validation: %v", err)
	}

	report, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var chunks int
	for _, line := range strings.Split(string(report), "\n") {
		if strings.HasPrefix(line, "parallel: ") {
			if _, err := fmt.Sscanf(line, "parallel: %d chunks", &chunks); err != nil {
				t.Fatalf("unreadable parallel line %q: %v", line, err)
			}
		}
	}
	if chunks < 1 {
		t.Fatalf("report names no chunks:\n%s", report)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("chrome file is not JSON: %v", err)
	}
	procs := map[int]string{}
	threads := map[[2]int]string{}
	chunkSpans := 0
	counters := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		switch ev.Name {
		case "process_name":
			procs[ev.PID] = ev.Args["name"].(string)
			continue
		case "thread_name":
			threads[[2]int{ev.PID, ev.TID}] = ev.Args["name"].(string)
			continue
		}
		track := threads[[2]int{ev.PID, ev.TID}]
		switch {
		case strings.HasPrefix(ev.Name, "chunk["):
			if !strings.HasPrefix(track, "engine worker ") {
				t.Errorf("chunk span %q on track %q", ev.Name, track)
			}
			chunkSpans++
		case track == "counters":
			counters[ev.Name] = true
		}
	}
	for _, clock := range []string{"wall clock (us)", "simulated cycles", "simulated device clock (us)"} {
		found := false
		for _, name := range procs {
			found = found || strings.HasSuffix(name, clock)
		}
		if !found {
			t.Errorf("no %q process in %v", clock, procs)
		}
	}
	if len(procs) != 3 {
		t.Errorf("%d trace processes, want 3: %v", len(procs), procs)
	}
	if chunkSpans != chunks {
		t.Errorf("%d chunk spans for %d reported chunks", chunkSpans, chunks)
	}
	for _, c := range rec.Counters() {
		if !counters[c.Name()] {
			t.Errorf("counter %q missing from the chrome file", c.Name())
		}
	}
}

// TestStallReportSharesStableUnderParallel runs kernel mode on Config2
// with and without -parallel, which adds a second engine pass to the
// same recorder. Every cycle share in the two reports must be equal:
// the engine-derived groups double along with the pipeline cycles, and
// the co-simulation's groups are shares of its own clock total, which
// the extra engine pass does not touch.
func TestStallReportSharesStableUnderParallel(t *testing.T) {
	shares := func(parallel bool) map[string]string {
		dir := t.TempDir()
		reportPath := filepath.Join(dir, "report.txt")
		if _, err := run(2, 20000, 2, 0, 1, 256, filepath.Join(dir, "trace.json"), reportPath, 1<<16,
			parallel, 0, 0, &metricsrv.Flags{}); err != nil {
			t.Fatal(err)
		}
		report, err := os.ReadFile(reportPath)
		if err != nil {
			t.Fatal(err)
		}
		// A ranked cycle row ends in its share; the next line names its
		// group: "     [cosim.channel-busy, 1 instance(s)]".
		out := map[string]string{}
		lines := strings.Split(string(report), "\n")
		for i := 1; i < len(lines); i++ {
			prev := strings.Fields(lines[i-1])
			name, ok := strings.CutPrefix(strings.TrimSpace(lines[i]), "[")
			if !ok || len(prev) == 0 || !strings.HasSuffix(prev[len(prev)-1], "%") {
				continue
			}
			name, _, _ = strings.Cut(name, ",")
			out[name] = prev[len(prev)-1]
		}
		return out
	}
	seq, par := shares(false), shares(true)
	for _, name := range []string{"cosim.channel-busy", "cosim.fifo-stall", "mtfeed.mt1-hold", "rejection.normal-transform"} {
		if _, ok := seq[name]; !ok {
			t.Errorf("report has no share for %s: %v", name, seq)
		}
	}
	if len(seq) != len(par) {
		t.Errorf("%d cycle shares without -parallel, %d with: %v vs %v", len(seq), len(par), seq, par)
	}
	for name, s := range seq {
		if par[name] != s {
			t.Errorf("%s: share %s without -parallel, %s with", name, s, par[name])
		}
	}
}
