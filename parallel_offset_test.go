package decwi

import (
	"fmt"
	"testing"
)

// TestGenerateParallelStreamOffset: the facade forwards StreamOffset —
// every worker count reproduces Generate's offset window, and it differs
// from the seed window. The jump itself is checked against the
// word-by-word walk in core's TestStreamOffsetSeekEquivalence.
func TestGenerateParallelStreamOffset(t *testing.T) {
	opt := GenerateOptions{Scenarios: 1500, Sectors: 2, Seed: 7}
	baseline, err := Generate(Config2, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.StreamOffset = 4099
	jumpedSeq, err := Generate(Config2, opt)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range baseline.Values {
		if jumpedSeq.Values[i] != baseline.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("StreamOffset=4099 left the output unchanged")
	}
	for _, workers := range []int{1, 4} {
		res, err := GenerateParallel(Config2, ParallelOptions{GenerateOptions: opt, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, fmt.Sprintf("jump/workers=%d", workers), res.Values, jumpedSeq.Values)
	}
}
