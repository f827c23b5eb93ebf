package core

import (
	"fmt"
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/telemetry"
)

// TestTelemetryDoesNotPerturbRNG is the guard promised in Config.Telemetry's
// doc: attaching a live recorder observes the run but must never change
// the generated data. The gating discipline of Section II-E makes the
// output exquisitely sensitive to any extra RNG consumption, so a
// telemetry hook that drew a random number — or reordered the gated
// stream advances — would show up here as a value-level diff.
func TestTelemetryDoesNotPerturbRNG(t *testing.T) {
	base := Config{
		Transform: normal.ICDFFPGA, MTParams: mt.MT521Params,
		WorkItems: 4, Scenarios: 2000, Sectors: 2,
		SectorVariance: 1.39, Seed: 99,
	}

	// Both transports must be telemetry-transparent: Run because its
	// stream and burst hooks sit between the generator and the buffer,
	// RunChunk because its per-block counter bookkeeping reads the
	// generator's counters mid-sector. Either way a hook that drew a
	// word would shift the stream.
	for _, streamed := range []bool{true, false} {
		run := runChunked
		if streamed {
			run = runSmall
		}
		plain := run(t, base)
		traced := base
		traced.Telemetry = telemetry.New(1 << 12)
		sameRun(t, fmt.Sprintf("streamed=%v telemetry on vs off", streamed), plain, run(t, traced))
	}
}

// TestTelemetryCountersPopulated verifies the engine actually records the
// per-work-item attribution counters the stall report ranks — in
// particular the Mersenne-Twister feed-stream hold counts and the gamma
// rejection-loop retries.
func TestTelemetryCountersPopulated(t *testing.T) {
	rec := telemetry.New(1 << 12)
	eng, err := NewEngine(Config{
		Transform: normal.MarsagliaBray, MTParams: mt.MT19937Params,
		WorkItems: 2, Scenarios: 1000, Sectors: 1,
		SectorVariance: 1.39, Seed: 5, Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	byName := map[string]*telemetry.Counter{}
	for _, c := range rec.Counters() {
		byName[c.Name()] = c
	}
	for _, name := range []string{
		"engine.cycles[0]", "engine.accepted[0]",
		"mtfeed.mt1-hold[0]", "mtfeed.mt2-hold[0]",
		"rejection.gamma-loop[0]", "rejection.normal-transform[0]",
		"membus.bursts[0]",
	} {
		c, ok := byName[name]
		if !ok {
			t.Fatalf("counter %q not recorded (have %d counters)", name, len(byName))
		}
		if c.Value() < 0 {
			t.Fatalf("counter %q negative: %d", name, c.Value())
		}
	}
	// Marsaglia-Bray rejects at the transform level, so both the
	// transform-rejection and MT1-hold counters must be strictly positive.
	if byName["rejection.normal-transform[0]"].Value() == 0 {
		t.Fatal("Marsaglia-Bray run recorded zero transform rejections")
	}
	if byName["mtfeed.mt1-hold[0]"].Value() == 0 {
		t.Fatal("Marsaglia-Bray run recorded zero MT1 hold cycles")
	}
	if byName["engine.cycles[0]"].Value() <= byName["engine.accepted[0]"].Value() {
		t.Fatal("cycles should exceed accepted under rejection")
	}
}

// TestTelemetryBlockCounters verifies the block compute path publishes
// its bulk-fill accounting: the number of CycleBlock batches and the
// total Mersenne-Twister words those batches consumed. Every trip of the
// block path runs inside a CycleBlock, so the word count must equal the
// work-item's whole consumption — the always-enabled MT0 draws of every
// cycle, one MT1 word per valid normal and one MT2 word per acceptance.
// The engine runs twice on one recorder, as a server's jobs share one:
// the engine cycle counters must add up over both runs the way the
// block counters do, or the identity breaks.
func TestTelemetryBlockCounters(t *testing.T) {
	rec := telemetry.New(1 << 12)
	eng, err := NewEngine(Config{
		Transform: normal.MarsagliaBray, MTParams: mt.MT19937Params,
		WorkItems: 2, Scenarios: 4000, Sectors: 2,
		SectorVariance: 1.39, Seed: 5, Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	block := map[string]*telemetry.Counter{}
	for _, c := range rec.Counters() {
		block[c.Name()] = c
	}
	for wid := 0; wid < 2; wid++ {
		fills := block[fmt.Sprintf("rng.gamma[%d].block-fills", wid)]
		words := block[fmt.Sprintf("rng.gamma[%d].block-words", wid)]
		if fills.Value() == 0 {
			t.Fatalf("work-item %d: no block fills recorded on the block path", wid)
		}
		perAttempt := int64(normal.MarsagliaBray.UniformsPerCandidate())
		cycles := block[fmt.Sprintf("engine.cycles[%d]", wid)].Value()
		accepted := block[fmt.Sprintf("engine.accepted[%d]", wid)].Value()
		nvalid := cycles - block[fmt.Sprintf("rejection.normal-transform[%d]", wid)].Value()
		if want := cycles*perAttempt + nvalid + accepted; words.Value() != want {
			t.Fatalf("work-item %d: block-words %d, want the runs' whole consumption %d (%d cycles, %d valid normals, %d accepted)",
				wid, words.Value(), want, cycles, nvalid, accepted)
		}
	}
}
