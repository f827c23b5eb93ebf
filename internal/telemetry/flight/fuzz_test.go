package flight

import "testing"

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

// FuzzCheckTraceJSON: the /debug/jobs/{id} validator never panics, and
// an accepted body reports a non-negative span count. The seed corpus
// is testdata/fuzz/FuzzCheckTraceJSON.
func FuzzCheckTraceJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spans, err := CheckTraceJSON(body)
		if err == nil && spans < 0 {
			t.Fatalf("accepted trace with %d spans", spans)
		}
	})
}
