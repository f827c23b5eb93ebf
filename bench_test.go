package decwi_test

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`), plus the
// ablation benches for the design decisions DESIGN.md calls out. Each
// benchmark regenerates its artefact and reports the headline quantity as
// a custom metric, so `go test -bench` output doubles as the
// reproduction log.

import (
	"runtime"
	"testing"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/core"
	"github.com/decwi/decwi/internal/fpga"
	"github.com/decwi/decwi/internal/perf"
	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/simt"
	"github.com/decwi/decwi/internal/telemetry"
)

// BenchmarkTableI regenerates the configuration table (trivially cheap;
// kept so every artefact has a bench target).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range decwi.AllConfigs {
			if _, err := c.Describe(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTableII regenerates the P&R utilization report.
func BenchmarkTableII(b *testing.B) {
	var rows []decwi.ResourceRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = decwi.TableII()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].WorkItems), "workitems-config1")
	b.ReportMetric(rows[0].SlicePct, "slice%-config1")
}

// BenchmarkTableIII regenerates the runtime table and reports the
// Config1 FPGA-vs-CPU speedup (paper: 5.5x).
func BenchmarkTableIII(b *testing.B) {
	var rows []decwi.RuntimeRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = decwi.TableIII()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].CPU.Seconds()/rows[0].FPGA.Seconds(), "speedup-vs-cpu")
	b.ReportMetric(rows[0].FPGA.Seconds()*1000, "fpga-ms-config1")
}

// BenchmarkFig5a regenerates the localSize sweep and reports the GPU
// optimum (paper: 64).
func BenchmarkFig5a(b *testing.B) {
	var pts []decwi.SweepPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = decwi.Fig5a(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	best, bestRt := 0, pts[0].Runtime
	for _, p := range pts {
		if p.Platform == "GPU" && p.Config == "Config1" && p.Runtime <= bestRt {
			best, bestRt = p.X, p.Runtime
		}
	}
	b.ReportMetric(float64(best), "gpu-opt-localsize")
}

// BenchmarkFig5b regenerates the globalSize sweep.
func BenchmarkFig5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := decwi.Fig5b(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 runs the distribution validation (engine + KS test) and
// reports the KS statistic.
func BenchmarkFig6(b *testing.B) {
	var res *decwi.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = decwi.Fig6(1.39, 50000, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.KSD, "ks-D")
}

// BenchmarkFig7 regenerates the transfers-only sweep and reports the
// saturated bandwidth (paper: ≈3.9 GB/s).
func BenchmarkFig7(b *testing.B) {
	var rows []decwi.Fig7Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = decwi.Fig7(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].Bandwidth, "sat-GB/s")
}

// BenchmarkFig8 synthesizes and integrates the Config1 power trace.
func BenchmarkFig8(b *testing.B) {
	var res *decwi.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = decwi.Fig8(decwi.Config1, "FPGA")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.EnergyPerInv, "J/invocation")
}

// BenchmarkFig9 regenerates the energy comparison and reports the
// Config1 CPU/FPGA efficiency ratio (paper: 9.5x).
func BenchmarkFig9(b *testing.B) {
	var rows []decwi.EnergyRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = decwi.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Config == "Config1" && r.Platform == "CPU" {
			b.ReportMetric(r.RatioVsFPGA, "cpu/fpga-ratio")
		}
	}
}

// BenchmarkRejectionRates measures the Section IV-E rates.
func BenchmarkRejectionRates(b *testing.B) {
	var rows []decwi.RejectionRateRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = decwi.RejectionRates(20000, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].Rate, "mbray-r-v1.39")
}

// BenchmarkEquation1 evaluates the theoretical runtime model.
func BenchmarkEquation1(b *testing.B) {
	d := fpga.DefaultDevice()
	for i := 0; i < b.N; i++ {
		if _, err := d.TheoreticalEq1(fpga.PaperWorkload, 6, 0.303); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md "Key design decisions") ---

// BenchmarkAblationGatedMT quantifies decision 2: the gated free-running
// Mersenne-Twister versus a stall-on-reject variant that must re-draw
// (and therefore serialize) on invalid cycles. The gated version does
// constant work per pipeline cycle.
func BenchmarkAblationGatedMT(b *testing.B) {
	b.Run("gated", func(b *testing.B) {
		c := mt.NewMT19937(1)
		pattern := rng.NewSplitMix64(2)
		var sink uint32
		for i := 0; i < b.N; i++ {
			sink += c.Next(pattern.Uint32()&3 != 0)
		}
		_ = sink
	})
	b.Run("stalling", func(b *testing.B) {
		c := mt.NewMT19937(1)
		pattern := rng.NewSplitMix64(2)
		var sink uint32
		for i := 0; i < b.N; i++ {
			// Stall-on-reject: a rejected cycle wastes the draw and the
			// pipeline must replay it (modelled as an extra draw).
			v := c.Uint32()
			if pattern.Uint32()&3 == 0 {
				v = c.Uint32()
			}
			sink += v
		}
		_ = sink
	})
}

// BenchmarkAblationDecoupling quantifies decision 3: lockstep inflation
// at warp width versus fully decoupled execution, as a function of the
// rejection-heavy transform.
func BenchmarkAblationDecoupling(b *testing.B) {
	for _, width := range []int{1, 8, 32} {
		width := width
		b.Run(map[int]string{1: "decoupled", 8: "simd8", 32: "warp32"}[width], func(b *testing.B) {
			var infl float64
			for i := 0; i < b.N; i++ {
				r, err := simt.SimulatePartitions(simt.SimConfig{
					Transform: normal.MarsagliaBray, MTParams: mt.MT521Params,
					Variance: 1.39, Width: width, Partitions: 2, Quota: 400,
					Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				infl = r.LockstepInflation
			}
			b.ReportMetric(infl, "lockstep-inflation")
		})
	}
}

// BenchmarkAblationInterleave quantifies decision 4: interleaving
// compute with transfers (Fig. 3) versus serializing them — the modelled
// runtime ratio for the paper workload on Config1.
func BenchmarkAblationInterleave(b *testing.B) {
	d := fpga.DefaultDevice()
	r := perf.MeasuredIters(normal.MarsagliaBray).RejectionRate
	var ratio float64
	for i := 0; i < b.N; i++ {
		t, err := d.KernelRuntime(fpga.PaperWorkload, 6, r, perf.FPGABurstRNs)
		if err != nil {
			b.Fatal(err)
		}
		// Serialized alternative: compute fully, then transfer.
		serial := t.ComputeTime + t.TransferTime
		ratio = serial.Seconds() / t.Runtime.Seconds()
	}
	b.ReportMetric(ratio, "serial/interleaved")
}

// BenchmarkAblationMemChannels quantifies the conclusion's future-work
// claim: a customized memory controller with a second channel lifts the
// transfer bound of Config3/4 and recovers the Eq. (1) headroom.
func BenchmarkAblationMemChannels(b *testing.B) {
	r := perf.MeasuredIters(normal.ICDFFPGA).RejectionRate
	for _, channels := range []int{1, 2} {
		channels := channels
		b.Run(map[int]string{1: "1ch", 2: "2ch"}[channels], func(b *testing.B) {
			d := fpga.DefaultDevice()
			d.Mem.Channels = channels
			var ms float64
			for i := 0; i < b.N; i++ {
				t, err := d.KernelRuntime(fpga.PaperWorkload, 8, r, perf.FPGABurstRNs)
				if err != nil {
					b.Fatal(err)
				}
				ms = t.Runtime.Seconds() * 1000
			}
			b.ReportMetric(ms, "fpga-ms-config3")
		})
	}
}

// BenchmarkCoSimValidation runs the cycle-accurate co-simulation that
// grounds the analytic Table III FPGA model, reporting the Fig. 3 overlap
// fraction.
func BenchmarkCoSimValidation(b *testing.B) {
	var overlap float64
	for i := 0; i < b.N; i++ {
		res, err := fpga.RunCoSim(fpga.CoSimConfig{
			WorkItems: 6, Quota: 10000,
			Transform: normal.MarsagliaBray, MTParams: mt.MT521Params, Variance: 1.39,
			Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		overlap = res.OverlapFraction()
	}
	b.ReportMetric(overlap, "fig3-overlap")
}

// BenchmarkAblationNDRangeVsTask compares the two kernel formulations of
// Section III-A at equal pipeline counts.
func BenchmarkAblationNDRangeVsTask(b *testing.B) {
	b.Run("ndrange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunNDRange(core.NDRangeConfig{
				Config: core.Config{
					Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
					Scenarios: 16384, Sectors: 1, SectorVariance: 1.39, Seed: uint64(i + 1),
				},
				WorkGroups: 4, LocalSize: 8,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("task", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := core.NewEngine(core.Config{
				Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
				WorkItems: 4, Scenarios: 16384, Sectors: 1,
				SectorVariance: 1.39, Seed: uint64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBufferCombining quantifies decision 5 (Section III-E): host-
// level versus device-level read-back combining through the OpenCL shim.
func BenchmarkBufferCombining(b *testing.B) {
	for _, host := range []bool{false, true} {
		name := "device-level"
		if host {
			name = "host-level"
		}
		host := host
		b.Run(name, func(b *testing.B) {
			s, err := decwi.NewSession("FPGA")
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var reads int
			for i := 0; i < b.N; i++ {
				run, err := s.EnqueueGamma(decwi.Config4, decwi.GenerateOptions{
					Scenarios: 4096, Sectors: 1, Seed: uint64(i + 1),
				}, host)
				if err != nil {
					b.Fatal(err)
				}
				reads = run.ReadRequests
			}
			b.ReportMetric(float64(reads), "read-requests")
		})
	}
}

// BenchmarkEngineThroughput measures the functional engine through
// Generate: gamma values generated per second on the host path.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, cID := range []decwi.ConfigID{decwi.Config1, decwi.Config2, decwi.Config3, decwi.Config4} {
		cID := cID
		b.Run(cID.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := decwi.Generate(cID, decwi.GenerateOptions{
					Scenarios: 65536, Sectors: 1, Seed: uint64(i + 1),
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(65536 * 4)
		})
	}
}

// BenchmarkBlockCompute measures the block compute path (bulk
// Mersenne-Twister fills + batched normal/gamma kernels) through
// Generate, per Table I config; bytes/sec is the comparison axis.
func BenchmarkBlockCompute(b *testing.B) {
	for _, cID := range []decwi.ConfigID{decwi.Config1, decwi.Config2, decwi.Config3, decwi.Config4} {
		cID := cID
		b.Run(cID.String()+"/block", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := decwi.Generate(cID, decwi.GenerateOptions{
					Scenarios: 65536, Sectors: 1, Seed: uint64(i + 1),
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(65536 * 4)
		})
	}
}

// BenchmarkGenerateParallel is the sharding ablation: Generate (the
// scheduler at one worker over one chunk) versus the work-item-sharded
// GenerateParallel scheduler (fused chunk execution, zero-copy assembly,
// output bitwise-identical to Generate). The 1core variant pins
// GOMAXPROCS=1 so the scheduler's overhead against a single sequential
// chunk is measured without parallel speedup. All variants move the same
// number of values; bytes/sec is the comparison axis.
func BenchmarkGenerateParallel(b *testing.B) {
	const scenarios, sectors = 65536, 1
	opts := decwi.GenerateOptions{Scenarios: scenarios, Sectors: sectors, WorkItems: 4}
	b.Run("generate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := opts
			o.Seed = uint64(i + 1)
			if _, err := decwi.Generate(decwi.Config2, o); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(scenarios * sectors * 4)
	})
	b.Run("sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := opts
			o.Seed = uint64(i + 1)
			if _, err := decwi.GenerateParallel(decwi.Config2, decwi.ParallelOptions{
				GenerateOptions: o, ChunkWorkItems: 2,
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(scenarios * sectors * 4)
	})
	b.Run("sharded-1core", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for i := 0; i < b.N; i++ {
			o := opts
			o.Seed = uint64(i + 1)
			if _, err := decwi.GenerateParallel(decwi.Config2, decwi.ParallelOptions{
				GenerateOptions: o, ChunkWorkItems: 2, Workers: 1,
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(scenarios * sectors * 4)
	})
}

// BenchmarkPortfolioRisk measures the CreditRisk+ application path.
func BenchmarkPortfolioRisk(b *testing.B) {
	p, err := decwi.NewUniformPortfolio(4, 1.39, 50, 0.02, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decwi.PortfolioRisk(p, decwi.Config2, 2000, 0, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStreamDepth sweeps the hls::stream FIFO depth, the
// knob that trades BRAM for decoupling slack between the GammaRNG and
// Transfer processes.
func BenchmarkAblationStreamDepth(b *testing.B) {
	for _, depth := range []int{1, 16, 256} {
		depth := depth
		b.Run(map[int]string{1: "depth1", 16: "depth16", 256: "depth256"}[depth], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := core.NewEngine(core.Config{
					Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
					WorkItems: 4, Scenarios: 32768, Sectors: 1,
					SectorVariance: 1.39, StreamDepth: depth, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGamma measures the telemetry overhead on the paper's hot
// path: the decoupled work-item engine's host path (RunChunk over every
// work-item) generating gamma variates.
// The "off" variant (nil recorder — the no-op implementation) is the
// tier-1 overhead gate: it must stay within noise of the pre-telemetry
// engine, because disabled instrumentation is a nil-receiver check per
// operation, not an event. The "on" variant quantifies the cost of live
// tracing for the trade-off note in DESIGN.md.
func BenchmarkGamma(b *testing.B) {
	run := func(b *testing.B, rec *telemetry.Recorder) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			eng, err := core.NewEngine(core.Config{
				Transform: normal.ICDFFPGA, MTParams: mt.MT19937Params,
				WorkItems: 8, Scenarios: 65536, Sectors: 1,
				SectorVariance: 1.39, Seed: uint64(i + 1),
				Telemetry: rec,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.RunChunk(nil, make([]float32, 65536), 0, 8, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(65536 * 4)
	}
	b.Run("telemetry-off", func(b *testing.B) { run(b, nil) })
	b.Run("telemetry-on", func(b *testing.B) { run(b, telemetry.New(1<<16)) })
}
