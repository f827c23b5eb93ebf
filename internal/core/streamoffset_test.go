package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

func seekConfig() Config {
	return Config{
		Transform:      normal.MarsagliaBray,
		MTParams:       mt.MT521Params,
		WorkItems:      3,
		Scenarios:      901,
		Sectors:        2,
		SectorVariance: 1.39,
		Seed:           11,
	}
}

func floatBytes(xs []float32) []byte {
	var buf bytes.Buffer
	_ = binary.Write(&buf, binary.LittleEndian, xs)
	return buf.Bytes()
}

// TestStreamOffsetSeekEquivalence: the O(log n) jump seek must land
// where the O(n) word-by-word walk does — the chunk path at
// StreamOffset 4099 reproduces the gated oracle, which applies the
// offset with AdvanceStreams — and a nonzero offset must actually move
// the stream.
func TestStreamOffsetSeekEquivalence(t *testing.T) {
	cfg := seekConfig()
	baseline := runChunked(t, cfg).Data

	cfg.StreamOffset = 4099
	stepped := gatedReference(t, cfg)
	sameRun(t, "jumped RunChunk vs stepped oracle", stepped, runChunked(t, cfg))
	if bytes.Equal(floatBytes(stepped.Data), floatBytes(baseline)) {
		t.Fatal("StreamOffset=4099 left the output unchanged")
	}
}
