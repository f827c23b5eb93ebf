package flight

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// This file validates the /debug/jobs wire shapes the way
// metricsrv.CheckSnapshot validates /snapshot: strict decoding (unknown
// fields and trailing data are rejected) plus the structural invariants
// the Recorder guarantees by construction — so a live server's debug
// plane can be gated in CI without an external tracing backend.

// CheckJobsJSON validates a GET /debug/jobs body: exactly one
// well-formed object, consistent retention totals, and every listed
// trace carrying an id, a state, and a sane duration. It returns the
// number of listed traces so callers can assert minimum coverage.
func CheckJobsJSON(body []byte) (jobs int, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var b JobsJSON
	if err := dec.Decode(&b); err != nil {
		return 0, fmt.Errorf("jobs listing is not well-formed JSON: %w", err)
	}
	// As in CheckTraceJSON: only the end of input may follow.
	if _, err := dec.Token(); err != io.EOF {
		return 0, errors.New("trailing data after the jobs object")
	}
	if b.Recorded < 0 || b.Evicted < 0 || b.Pinned < 0 {
		return 0, fmt.Errorf("negative retention totals (recorded=%d evicted=%d pinned=%d)",
			b.Recorded, b.Evicted, b.Pinned)
	}
	if b.Evicted > b.Recorded {
		return 0, fmt.Errorf("evicted %d exceeds recorded %d", b.Evicted, b.Recorded)
	}
	if int64(len(b.Jobs)) != b.Recorded-b.Evicted {
		return 0, fmt.Errorf("listing has %d traces but recorded-evicted = %d",
			len(b.Jobs), b.Recorded-b.Evicted)
	}
	pinned := 0
	for i, s := range b.Jobs {
		if s.TraceID == "" {
			return 0, fmt.Errorf("jobs[%d]: empty trace_id", i)
		}
		if s.State == "" {
			return 0, fmt.Errorf("jobs[%d] (%s): empty state", i, s.TraceID)
		}
		if s.DurationUS < -1 {
			return 0, fmt.Errorf("jobs[%d] (%s): duration_us %d", i, s.TraceID, s.DurationUS)
		}
		if s.State != StateLive && s.DurationUS < 0 {
			return 0, fmt.Errorf("jobs[%d] (%s): terminal state %q with no duration", i, s.TraceID, s.State)
		}
		if s.Spans < 0 {
			return 0, fmt.Errorf("jobs[%d] (%s): negative span count %d", i, s.TraceID, s.Spans)
		}
		if s.Pinned {
			pinned++
		}
	}
	if pinned != b.Pinned {
		return 0, fmt.Errorf("listing marks %d traces pinned but header says %d", pinned, b.Pinned)
	}
	return len(b.Jobs), nil
}

// CheckTraceJSON validates a trace body — a GET /debug/jobs/{id}
// response or a traced kernel run's snapshot: strict schema, span ids
// unique and strictly ascending from 1, parents referring only to
// earlier spans, every span on a known clock and on its parent's clock,
// monotone span times (end ≥ start; open spans only on a live trace),
// and parent/child containment — a child span must lie inside its
// parent's [start, end] window. Returns the span count.
func CheckTraceJSON(body []byte) (spans int, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var t TraceJSON
	if err := dec.Decode(&t); err != nil {
		return 0, fmt.Errorf("trace is not well-formed JSON: %w", err)
	}
	// More reports false before a stray '}' or ']', so ask for the
	// next token: only the end of input may follow the object.
	if _, err := dec.Token(); err != io.EOF {
		return 0, errors.New("trailing data after the trace object")
	}
	if t.TraceID == "" {
		return 0, errors.New("empty trace_id")
	}
	if t.State == "" {
		return 0, errors.New("empty state")
	}
	live := t.State == StateLive
	if !live && t.DurationUS < 0 {
		return 0, fmt.Errorf("terminal state %q with duration_us %d", t.State, t.DurationUS)
	}
	if t.Dropped < 0 {
		return 0, fmt.Errorf("negative dropped_spans %d", t.Dropped)
	}
	for i, s := range t.Spans {
		ctx := fmt.Sprintf("span %d (%q)", s.ID, s.Name)
		if int(s.ID) != i+1 {
			return 0, fmt.Errorf("%s: id out of sequence at index %d (ids must ascend from 1)", ctx, i)
		}
		if s.Name == "" {
			return 0, fmt.Errorf("span %d: empty name", s.ID)
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			return 0, fmt.Errorf("%s: parent %d must name an earlier span or 0", ctx, s.Parent)
		}
		if clockIndex(s.Clock) < 0 {
			return 0, fmt.Errorf("%s: unknown clock %q", ctx, s.Clock)
		}
		if s.StartUS < 0 {
			return 0, fmt.Errorf("%s: negative start_us %d", ctx, s.StartUS)
		}
		switch {
		case s.EndUS == -1:
			if !live {
				return 0, fmt.Errorf("%s: open span on a terminal (%s) trace", ctx, t.State)
			}
		case s.EndUS < s.StartUS:
			return 0, fmt.Errorf("%s: end_us %d before start_us %d", ctx, s.EndUS, s.StartUS)
		}
		if s.Parent > 0 {
			p := t.Spans[s.Parent-1]
			if s.Clock != p.Clock {
				return 0, fmt.Errorf("%s: clock %q differs from parent %d (%q) clock %q",
					ctx, s.Clock, p.ID, p.Name, p.Clock)
			}
			if s.StartUS < p.StartUS {
				return 0, fmt.Errorf("%s: starts at %dus, before parent %d (%q) at %dus",
					ctx, s.StartUS, p.ID, p.Name, p.StartUS)
			}
			if p.EndUS >= 0 && s.EndUS >= 0 && s.EndUS > p.EndUS {
				return 0, fmt.Errorf("%s: ends at %dus, after parent %d (%q) at %dus",
					ctx, s.EndUS, p.ID, p.Name, p.EndUS)
			}
		}
	}
	return len(t.Spans), nil
}
