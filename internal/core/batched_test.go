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

// TestBatchedTransportEquivalence: Run's stream carries WordRNs-sized
// bursts through a FIFO shallower than a burst, and the buffer it fills
// must hold exactly the per-value sequence of the gated scalar oracle,
// for every Table I config at a fixed seed. Batching may only change
// *how* values cross the FIFO, never their order or contents.
func TestBatchedTransportEquivalence(t *testing.T) {
	for _, tc := range tableIConfigs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Transform: tc.transform, MTParams: tc.params,
				WorkItems: 2, Scenarios: 100, Sectors: 3,
				SectorVariance: 1.39, Seed: 0xFEEDFACE,
				StreamDepth: 8, // small FIFO: bursts larger than depth
			}
			sameRun(t, "batched Run vs gated oracle", gatedReference(t, cfg), runSmall(t, cfg))
		})
	}
}

// TestBatchedTransportDeterminism: two batched runs at the same seed are
// identical — the burst path introduces no scheduling-dependent state.
func TestBatchedTransportDeterminism(t *testing.T) {
	cfg := Config{
		Transform: normal.MarsagliaBray, MTParams: mt.MT19937Params,
		WorkItems: 4, Scenarios: 256, Sectors: 2,
		SectorVariance: 1.39, Seed: 42,
	}
	run := func() []float32 {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Data
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Data[%d] differs across identical batched runs", i)
		}
	}
}
