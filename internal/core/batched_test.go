package core

import (
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

// tableIConfigs are the four kernel builds of Table I.
var tableIConfigs = []struct {
	name      string
	transform normal.Kind
	params    mt.Params
}{
	{"Config1-MB-MT19937", normal.MarsagliaBray, mt.MT19937Params},
	{"Config2-MB-MT521", normal.MarsagliaBray, mt.MT521Params},
	{"Config3-ICDF-MT19937", normal.ICDFCUDA, mt.MT19937Params},
	{"Config4-ICDF-MT521", normal.ICDFCUDA, mt.MT521Params},
}

// TestBatchedTransportEquivalence: the candidate blocks RunChunk writes
// in batches must fill the buffer with exactly the per-value sequence
// of the gated scalar oracle, for every Table I config at a fixed seed.
// Batching may only change *how* values reach the buffer, never their
// order or contents.
func TestBatchedTransportEquivalence(t *testing.T) {
	for _, tc := range tableIConfigs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Transform: tc.transform, MTParams: tc.params,
				WorkItems: 2, Scenarios: 100, Sectors: 3,
				SectorVariance: 1.39, Seed: 0xFEEDFACE,
			}
			sameRun(t, "batched RunChunk vs gated oracle", gatedReference(t, cfg), runChunked(t, cfg))
		})
	}
}

// TestBatchedTransportDeterminism: two batched runs at the same seed are
// identical — the block path introduces no scheduling-dependent state.
func TestBatchedTransportDeterminism(t *testing.T) {
	cfg := Config{
		Transform: normal.MarsagliaBray, MTParams: mt.MT19937Params,
		WorkItems: 4, Scenarios: 256, Sectors: 2,
		SectorVariance: 1.39, Seed: 42,
	}
	a, b := runChunked(t, cfg).Data, runChunked(t, cfg).Data
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Data[%d] differs across identical batched runs", i)
		}
	}
}
