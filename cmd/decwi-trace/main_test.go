package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/decwi/decwi/internal/telemetry/flight"
	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

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
		true, 0, 0, 0, &metricsrv.Flags{})
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
