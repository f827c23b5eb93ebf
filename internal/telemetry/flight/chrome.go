package flight

import (
	"encoding/json"
	"fmt"
)

// This file renders a trace in the Chrome trace_event JSON format (the
// "JSON Array Format" with an object wrapper), which chrome://tracing
// and Perfetto load directly. It is the one exporter of the stack: a
// serve-path job trace from /debug/jobs/{id} and a traced kernel run's
// trace from decwi-trace both render here. Layout:
//
//   - one trace "process" per Clock, so wall-clock, cycle and device
//     spans never share a time axis;
//   - one trace "thread" per track within its clock; the serve path's
//     untracked span tree is the "serve" thread, where Chrome nests
//     'X' events by time containment into a flame stack;
//   - every span, zero-length ones included, is an 'X' complete event.

type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// serveTrack is the thread name of spans that carry no track.
const serveTrack = "serve"

// ChromeTrace renders the trace for chrome://tracing / Perfetto. A span
// on an unknown clock is an error.
func (t TraceJSON) ChromeTrace() ([]byte, error) {
	header := fmt.Sprintf("%s trace %s (%s)", t.Kind, t.TraceID, t.State)
	if t.JobID != "" {
		header = fmt.Sprintf("job %s (trace %s, lane %s, %s)", t.JobID, t.TraceID, t.Lane, t.State)
	}

	out := []chromeEvent{}
	type thread struct{ pid, tid int }
	threads := map[[2]string]thread{} // (clock, track) → thread
	procs := [len(clocks)]int{}       // per clock: threads named so far
	for _, s := range t.Spans {
		ci := clockIndex(s.Clock)
		if ci < 0 {
			return nil, fmt.Errorf("flight: span %d (%q) has unknown clock %q", s.ID, s.Name, s.Clock)
		}
		track := s.Track
		if track == "" {
			track = serveTrack
		}
		key := [2]string{string(s.Clock), track}
		th, ok := threads[key]
		if !ok {
			if procs[ci] == 0 {
				out = append(out, chromeEvent{
					Name: "process_name", Phase: "M", PID: ci + 1,
					Args: map[string]any{"name": header + " — " + clocks[ci].name},
				})
			}
			procs[ci]++
			th = thread{pid: ci + 1, tid: procs[ci]}
			threads[key] = th
			out = append(out, chromeEvent{
				Name: "thread_name", Phase: "M", PID: th.pid, TID: th.tid,
				Args: map[string]any{"name": track},
			})
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		if s.Arg != 0 {
			args["arg"] = s.Arg
		}
		end := s.EndUS
		if end < 0 {
			// Open span on a live trace: render it up to the last known
			// timestamp so it is visible rather than zero-width.
			end = s.StartUS
		}
		dur := end - s.StartUS
		if dur < 1 {
			// chrome://tracing hides true zero-duration 'X' events;
			// clamp to 1 unit so instants stay clickable.
			dur = 1
		}
		out = append(out, chromeEvent{
			Name: s.Name, Phase: "X", TS: s.StartUS, Dur: dur,
			PID: th.pid, TID: th.tid, Args: args,
		})
	}
	return json.MarshalIndent(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"}, "", " ")
}
