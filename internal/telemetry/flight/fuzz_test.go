package flight

import (
	"encoding/json"
	"testing"
)

// FuzzTraceIDFrom: any header yields either "" or a 32-character
// lowercase-hex trace id taken verbatim from the header. The seed
// corpus is testdata/fuzz/FuzzTraceIDFrom.
func FuzzTraceIDFrom(f *testing.F) {
	f.Fuzz(func(t *testing.T, traceparent string) {
		id := TraceIDFrom(traceparent)
		if id == "" {
			return
		}
		if len(id) != 32 {
			t.Fatalf("TraceIDFrom(%q) = %q: %d characters, want 32", traceparent, id, len(id))
		}
		for i := 0; i < len(id); i++ {
			if !isHex(id[i]) {
				t.Fatalf("TraceIDFrom(%q) = %q: byte %d is not lowercase hex", traceparent, id, i)
			}
		}
		if id != traceparent[3:35] {
			t.Fatalf("TraceIDFrom(%q) = %q, not the header's trace-id field", traceparent, id)
		}
	})
}

// FuzzCheckTraceJSON: the trace validator never panics, and an
// accepted body reports a non-negative span count and renders to
// Chrome trace_event JSON. The seed corpus is
// testdata/fuzz/FuzzCheckTraceJSON.
func FuzzCheckTraceJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spans, err := CheckTraceJSON(body)
		if err != nil {
			return
		}
		if spans < 0 {
			t.Fatalf("accepted trace with %d spans", spans)
		}
		var tj TraceJSON
		if err := json.Unmarshal(body, &tj); err != nil {
			t.Fatalf("accepted trace does not decode: %v", err)
		}
		if _, err := tj.ChromeTrace(); err != nil {
			t.Fatalf("accepted trace does not render: %v", err)
		}
	})
}
