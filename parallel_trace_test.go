package decwi

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/decwi/decwi/internal/telemetry/flight"
)

// TestGenerateParallelChunkSpans: with a flight trace attached, the
// parallel scheduler records one closed chunk[worker] span per executed
// chunk under the given parent — and the traced run's bytes are
// bitwise-identical to the untraced run (attaching observability must
// not perturb the result).
func TestGenerateParallelChunkSpans(t *testing.T) {
	opt := GenerateOptions{Scenarios: 3000, Sectors: 2, Seed: 0xDECA1}
	plain, err := GenerateParallel(Config2, ParallelOptions{
		GenerateOptions: opt, ChunkWorkItems: 2, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	rec := flight.New(4, 4, time.Second)
	tr := rec.Start("", "generate")
	root := tr.Begin("engine-run", 0)
	traced, err := GenerateParallel(Config2, ParallelOptions{
		GenerateOptions: opt, ChunkWorkItems: 2, Workers: 2,
		Trace: tr, TraceSpan: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.End(root)
	tr.Finish("done", "")

	bitwiseEqual(t, "traced vs plain", traced.Values, plain.Values)

	tj, ok := rec.Get(tr.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	chunkSpans := 0
	for _, sp := range tj.Spans {
		if len(sp.Name) >= 6 && sp.Name[:6] == "chunk[" {
			chunkSpans++
			if sp.Parent != root {
				t.Errorf("span %s parent %d, want engine-run %d", sp.Name, sp.Parent, root)
			}
			if sp.EndUS < sp.StartUS {
				t.Errorf("span %s not closed: [%d,%d]", sp.Name, sp.StartUS, sp.EndUS)
			}
			if sp.Detail == "" {
				t.Errorf("span %s carries no work-item range detail", sp.Name)
			}
		}
	}
	if chunkSpans != traced.Chunks {
		t.Fatalf("%d chunk spans for %d executed chunks", chunkSpans, traced.Chunks)
	}

	// The whole tree must survive the strict wire-format validation the
	// /debug/jobs consumers run.
	body, err := json.Marshal(tj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flight.CheckTraceJSON(body); err != nil {
		t.Fatalf("chunk-span trace fails validation: %v", err)
	}
}
