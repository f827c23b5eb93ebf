package fpga

import (
	"math"
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

func TestCoSimValidation(t *testing.T) {
	good := CoSimConfig{WorkItems: 1, Quota: 100, TransfersOnly: true}
	if _, err := RunCoSim(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*CoSimConfig){
		"work-items": func(c *CoSimConfig) { c.WorkItems = 0 },
		"quota":      func(c *CoSimConfig) { c.Quota = 0 },
		"fifo":       func(c *CoSimConfig) { c.FIFODepth = -1 },
		"burst":      func(c *CoSimConfig) { c.BurstRNs = 24 },
		"variance":   func(c *CoSimConfig) { c.TransfersOnly = false; c.Variance = 0 },
	} {
		c := good
		mutate(&c)
		if _, err := RunCoSim(c); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestCoSimMatchesAnalyticEngineRate: the cycle-level simulation and the
// analytic EffectiveBandwidthGBs agree on the single-engine rate for both
// the fill-limited (large burst) and turnaround-limited (small burst)
// regimes.
func TestCoSimMatchesAnalyticEngineRate(t *testing.T) {
	m := DefaultMemController()
	for _, burst := range []int{16, 64, 256} {
		res, err := RunCoSim(CoSimConfig{
			WorkItems: 1, Quota: 100000, TransfersOnly: true, BurstRNs: burst,
		})
		if err != nil {
			t.Fatal(err)
		}
		ana, err := m.EffectiveBandwidthGBs(m.BeatsForRNs(burst), 1)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.EffectiveBandwidthGBs-ana) / ana; rel > 0.05 {
			t.Errorf("burst %d: cosim %.3f GB/s vs analytic %.3f GB/s (%.1f%%)",
				burst, res.EffectiveBandwidthGBs, ana, 100*rel)
		}
	}
}

// TestCoSimMatchesAnalyticChannelRate: with enough engines the channel
// binds; cosim and the analytic channel term agree near the paper's
// ≈3.9 GB/s.
func TestCoSimMatchesAnalyticChannelRate(t *testing.T) {
	m := DefaultMemController()
	for _, engines := range []int{6, 8} {
		res, err := RunCoSim(CoSimConfig{
			WorkItems: engines, Quota: 40000, TransfersOnly: true, BurstRNs: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		ana, err := m.EffectiveBandwidthGBs(4, engines)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.EffectiveBandwidthGBs-ana) / ana; rel > 0.05 {
			t.Errorf("engines %d: cosim %.3f vs analytic %.3f GB/s", engines, res.EffectiveBandwidthGBs, ana)
		}
		if res.EffectiveBandwidthGBs < 3.6 || res.EffectiveBandwidthGBs > 4.1 {
			t.Errorf("engines %d: channel-bound bandwidth %.3f GB/s, paper ≈3.9", engines, res.EffectiveBandwidthGBs)
		}
	}
}

// TestCoSimComputeBoundRegime: the Config1/2 shape — 6 Marsaglia-Bray
// work-items demand ≈3.68 GB/s against ≈3.94 GB/s capacity, so the run is
// compute-bound: total cycles track quota·(1+r) closely and backpressure
// stalls are rare.
func TestCoSimComputeBoundRegime(t *testing.T) {
	const quota = 30000
	res, err := RunCoSim(CoSimConfig{
		WorkItems: 6, Quota: quota,
		Transform: normal.MarsagliaBray, MTParams: mt.MT521Params, Variance: 1.39,
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The nominal 1.303 iterations/output is itself a sampled quantity;
	// the realized rate of a finite run can sit slightly below it.
	ideal := float64(quota) * 1.303
	if ratio := float64(res.Cycles) / ideal; ratio < 0.97 || ratio > 1.12 {
		t.Fatalf("compute-bound cycles %d vs ideal %.0f (ratio %.3f)", res.Cycles, ideal, ratio)
	}
	stallFrac := float64(res.StalledCycles) / float64(res.Cycles*6)
	if stallFrac > 0.08 {
		t.Fatalf("compute-bound run stalls %.1f%% of pipeline cycles", 100*stallFrac)
	}
}

// TestCoSimTransferBoundRegime: the Config3/4 shape — 8 ICDF work-items
// demand ≈6.25 GB/s against ≈3.94 GB/s capacity; the generators stall on
// full FIFOs and the effective bandwidth pins to the channel.
func TestCoSimTransferBoundRegime(t *testing.T) {
	const quota = 30000
	res, err := RunCoSim(CoSimConfig{
		WorkItems: 8, Quota: quota,
		Transform: normal.ICDFFPGA, MTParams: mt.MT521Params, Variance: 1.39,
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveBandwidthGBs < 3.6 || res.EffectiveBandwidthGBs > 4.1 {
		t.Fatalf("transfer-bound bandwidth %.3f GB/s", res.EffectiveBandwidthGBs)
	}
	stallFrac := float64(res.StalledCycles) / float64(res.Cycles*8)
	if stallFrac < 0.2 {
		t.Fatalf("transfer-bound run shows only %.1f%% stalls — backpressure missing", 100*stallFrac)
	}
	// The compute side finishes well before the data is drained only if
	// stalling were absent; with blocking streams the producers finish
	// near the end.
	if float64(res.ComputeDoneCycle) < 0.8*float64(res.Cycles) {
		t.Fatalf("producers finished at %d of %d — FIFOs are not exerting backpressure",
			res.ComputeDoneCycle, res.Cycles)
	}
}

// TestCoSimInterleaving is Fig. 3: in steady state, transfers overlap
// computation — the overwhelming majority of channel-busy cycles coincide
// with at least one pipeline producing.
func TestCoSimInterleaving(t *testing.T) {
	res, err := RunCoSim(CoSimConfig{
		WorkItems: 6, Quota: 20000,
		Transform: normal.MarsagliaBray, MTParams: mt.MT521Params, Variance: 1.39,
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.OverlapFraction(); f < 0.85 {
		t.Fatalf("only %.1f%% of transfer cycles overlap computation; Fig. 3 claims near-full overlap", 100*f)
	}
	if res.Bursts == 0 || res.ChannelBusyCycles == 0 {
		t.Fatal("telemetry missing")
	}
}

// TestCoSimAgainstAnalyticKernelModel: the analytic KernelRuntime used
// for Table III agrees with the cycle-level ground truth within 10 % in
// both regimes (single-sector scaled workload).
func TestCoSimAgainstAnalyticKernelModel(t *testing.T) {
	d := DefaultDevice()
	cases := []struct {
		name      string
		workItems int
		transform normal.Kind
		rate      float64
	}{
		{"compute-bound-6WI", 6, normal.MarsagliaBray, 0.303},
		{"transfer-bound-8WI", 8, normal.ICDFFPGA, 0.023},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const quota = 40000
			res, err := RunCoSim(CoSimConfig{
				WorkItems: tc.workItems, Quota: quota,
				Transform: tc.transform, MTParams: mt.MT521Params, Variance: 1.39,
				Seed: 6,
			})
			if err != nil {
				t.Fatal(err)
			}
			w := Workload{NumScenarios: quota * int64(tc.workItems), NumSectors: 1, BytesPerValue: 4}
			ana, err := d.KernelRuntime(w, tc.workItems, tc.rate, 64)
			if err != nil {
				t.Fatal(err)
			}
			cosimSec := float64(res.Cycles) / d.ClockHz
			if rel := math.Abs(cosimSec-ana.Runtime.Seconds()) / ana.Runtime.Seconds(); rel > 0.10 {
				t.Fatalf("cosim %.4fs vs analytic %.4fs (%.1f%% apart)",
					cosimSec, ana.Runtime.Seconds(), 100*rel)
			}
		})
	}
}

// TestCoSimTinyFIFOStalls: in the compute-bound regime, a depth-1 stream
// FIFO exposes the pipelines to channel-arbitration jitter and costs
// cycles; a deep FIFO absorbs it completely. (In the transfer-bound
// regime depth is irrelevant — the channel is saturated either way —
// which is why the hls::stream depth is a cheap knob: Config1/2 need it,
// Config3/4 do not.)
func TestCoSimTinyFIFOStalls(t *testing.T) {
	run := func(depth int) CoSimResult {
		res, err := RunCoSim(CoSimConfig{
			WorkItems: 6, Quota: 20000,
			Transform: normal.MarsagliaBray, MTParams: mt.MT521Params, Variance: 1.39,
			FIFODepth: depth, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	deep, shallow := run(128), run(1)
	if shallow.Cycles <= deep.Cycles {
		t.Fatalf("depth-1 FIFO (%d cycles) should be slower than depth-128 (%d cycles)", shallow.Cycles, deep.Cycles)
	}
	if shallow.StalledCycles <= deep.StalledCycles {
		t.Fatalf("depth-1 stalls %d should exceed depth-128 stalls %d", shallow.StalledCycles, deep.StalledCycles)
	}
	// Transfer-bound: depth must NOT matter for total cycles (±1%).
	tb := func(depth int) int64 {
		res, err := RunCoSim(CoSimConfig{
			WorkItems: 8, Quota: 10000,
			Transform: normal.ICDFFPGA, MTParams: mt.MT521Params, Variance: 1.39,
			FIFODepth: depth, Seed: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	a, b := tb(1), tb(128)
	if math.Abs(float64(a-b))/float64(b) > 0.01 {
		t.Fatalf("transfer-bound cycles should be depth-insensitive: %d vs %d", a, b)
	}
}

// TestCoSimPartialFinalBurst: quotas that do not fill a whole burst still
// drain completely (the tail-flush path).
func TestCoSimPartialFinalBurst(t *testing.T) {
	res, err := RunCoSim(CoSimConfig{
		WorkItems: 3, Quota: 70, TransfersOnly: true, BurstRNs: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 70 values per work-item = one full burst + one padded tail burst.
	if res.Bursts != 3*2 {
		t.Fatalf("bursts %d, want 6", res.Bursts)
	}
}

// TestCoSimGolden pins the cycle-accurate co-simulation — the repo's
// only model of Listing 1's streams, Transfer engines and memory
// channel — to committed numbers for the four Table I kernels at their
// place-and-route work-item counts, plus a Config1 build with a
// two-deep FIFO so the backpressure path is pinned too. The other
// co-simulation tests check relations between these numbers; this one
// catches a change that moves them all together. A quota of 3000 is not
// a multiple of the 64-value burst, so every lane also flushes a
// partial final burst.
func TestCoSimGolden(t *testing.T) {
	type want struct {
		cycles, computeDone, stalled, channelBusy, overlap, bursts int64
	}
	for _, tc := range []struct {
		name      string
		transform normal.Kind
		params    mt.Params
		workItems int
		fifoDepth int
		want      want
	}{
		{"Config1", normal.MarsagliaBray, mt.MT19937Params, 6, 0, want{3986, 3967, 0, 3666, 3645, 282}},
		{"Config2", normal.MarsagliaBray, mt.MT521Params, 6, 0, want{3982, 3966, 0, 3666, 3649, 282}},
		{"Config3", normal.ICDFFPGA, mt.MT19937Params, 8, 0, want{4954, 4787, 13402, 4888, 4723, 376}},
		{"Config4", normal.ICDFFPGA, mt.MT521Params, 8, 0, want{4954, 4788, 13399, 4888, 4724, 376}},
		{"Config1-fifo2", normal.MarsagliaBray, mt.MT19937Params, 6, 2, want{4155, 4139, 1048, 3666, 3644, 282}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunCoSim(CoSimConfig{
				WorkItems: tc.workItems, Quota: 3000,
				Transform: tc.transform, MTParams: tc.params, Variance: 1.39,
				FIFODepth: tc.fifoDepth, Seed: 2017,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := want{res.Cycles, res.ComputeDoneCycle, res.StalledCycles,
				res.ChannelBusyCycles, res.OverlapCycles, res.Bursts}
			if got != tc.want {
				t.Fatalf("co-simulation moved:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

func BenchmarkCoSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunCoSim(CoSimConfig{
			WorkItems: 6, Quota: 5000,
			Transform: normal.MarsagliaBray, MTParams: mt.MT521Params, Variance: 1.39,
			Seed: uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
