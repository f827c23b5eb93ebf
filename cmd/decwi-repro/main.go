// Command decwi-repro regenerates every table and figure of the paper's
// evaluation section and prints them side by side with the published
// values.
//
// Usage:
//
//	decwi-repro -all
//	decwi-repro -table 1|2|3
//	decwi-repro -fig 5a|5b|6|7|8|9
//	decwi-repro -rates
//	decwi-repro -cosim
//	decwi-repro -table 3 -csv    # machine-readable output
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/profiling"
	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

func main() {
	table := flag.Int("table", 0, "regenerate Table N (1, 2 or 3)")
	fig := flag.String("fig", "", "regenerate figure (5a, 5b, 6, 7, 8, 9)")
	rates := flag.Bool("rates", false, "measure the Section IV-E rejection rates")
	cosim := flag.Bool("cosim", false, "run the cycle-accurate dataflow co-simulation")
	parallel := flag.Bool("parallel", false, "compare the work-stealing parallel engine against sequential Generate (throughput + bitwise equality)")
	all := flag.Bool("all", false, "regenerate everything")
	csvOut := flag.Bool("csv", false, "emit CSV instead of formatted text")
	seed := flag.Uint64("seed", 1, "master seed for the measured quantities")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mflags := metricsrv.RegisterFlags(flag.CommandLine)
	flag.Parse()
	csvMode = *csvOut

	if !*all && *table == 0 && *fig == "" && !*rates && !*cosim && !*parallel {
		flag.Usage()
		os.Exit(2)
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decwi-repro: %v\n", err)
		os.Exit(1)
	}
	metricsRec = mflags.Recorder()
	stopMetrics, err := mflags.Start("decwi-repro", metricsRec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decwi-repro: %v\n", err)
		os.Exit(1)
	}
	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "decwi-repro: %s: %v\n", name, err)
			stopMetrics()  // os.Exit skips defers; shut the server and flush
			stopProfiles() // the profiles first
			os.Exit(1)
		}
	}
	if *all || *table == 1 {
		run("table 1", func() error { return printTable1() })
	}
	if *all || *table == 2 {
		run("table 2", func() error {
			rows, err := decwi.TableII()
			if err != nil {
				return err
			}
			fmt.Println(decwi.RenderTableII(rows))
			return nil
		})
	}
	if *all || *table == 3 {
		run("table 3", func() error {
			rows, err := decwi.TableIII()
			if err != nil {
				return err
			}
			if csvMode {
				fmt.Println("setup,cpu_ms,gpu_ms,phi_ms,fpga_ms,paper_cpu_ms,paper_gpu_ms,paper_phi_ms,paper_fpga_ms")
				for _, r := range rows {
					fmt.Printf("%q,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f\n",
						r.Label, r.CPU.Seconds()*1000, r.GPU.Seconds()*1000,
						r.PHI.Seconds()*1000, r.FPGA.Seconds()*1000,
						r.PaperCPU, r.PaperGPU, r.PaperPHI, r.PaperFPGA)
				}
				return nil
			}
			fmt.Println(decwi.RenderTableIII(rows))
			return nil
		})
	}
	if *all || *fig == "5a" {
		run("fig 5a", func() error {
			pts, err := decwi.Fig5a(nil)
			if err != nil {
				return err
			}
			fmt.Println(decwi.RenderSweep("Fig 5a: runtime vs localSize (globalSize 65536)", "localSize", pts))
			return nil
		})
	}
	if *all || *fig == "5b" {
		run("fig 5b", func() error {
			pts, err := decwi.Fig5b(nil)
			if err != nil {
				return err
			}
			fmt.Println(decwi.RenderSweep("Fig 5b: runtime vs globalSize (optimal localSize)", "globalSize", pts))
			return nil
		})
	}
	if *all || *fig == "6" {
		run("fig 6", func() error { return printFig6(*seed) })
	}
	if *all || *fig == "7" {
		run("fig 7", func() error { return printFig7() })
	}
	if *all || *fig == "8" {
		run("fig 8", func() error { return printFig8() })
	}
	if *all || *fig == "9" {
		run("fig 9", func() error { return printFig9() })
	}
	if *all || *rates {
		run("rates", func() error { return printRates(*seed) })
	}
	if *all || *cosim {
		run("cosim", func() error { return printCoSim(*seed) })
	}
	if *all || *parallel {
		run("parallel", func() error { return printParallel(*seed) })
	}
	if err := stopMetrics(); err != nil {
		fmt.Fprintf(os.Stderr, "decwi-repro: %v\n", err)
		os.Exit(1)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "decwi-repro: %v\n", err)
		os.Exit(1)
	}
}

// csvMode switches the table printers to machine-readable output.
var csvMode bool

// metricsRec is non-nil when -http asked for the observability server;
// the measurement passes that support live metrics thread it through.
var metricsRec *telemetry.Recorder

func printCoSim(seed uint64) error {
	fmt.Println("Cycle-accurate dataflow co-simulation (Fig. 3 interleaving / regime check)")
	if csvMode {
		fmt.Println("config,cycles,overlap,stall,bandwidth_gbs,transfer_bound")
	}
	for _, c := range decwi.AllConfigs {
		rep, err := decwi.CoSimulate(c, 20000, seed)
		if err != nil {
			return err
		}
		if csvMode {
			fmt.Printf("%s,%d,%.4f,%.4f,%.3f,%v\n",
				c, rep.Cycles, rep.OverlapFraction, rep.StallFraction,
				rep.EffectiveBandwidthGBs, rep.TransferBound)
			continue
		}
		regime := "compute-bound"
		if rep.TransferBound {
			regime = "transfer-bound"
		}
		fmt.Printf("  %-9s cycles=%-8d overlap=%5.1f%%  stalls=%5.1f%%  bw=%.2f GB/s  (%s)\n",
			c, rep.Cycles, 100*rep.OverlapFraction, 100*rep.StallFraction,
			rep.EffectiveBandwidthGBs, regime)
	}
	fmt.Println()
	return nil
}

// printParallel measures the host-side generation rate of the
// sequential engine and the work-item-sharded parallel engine on the
// same workload and verifies the central contract: identical bytes.
func printParallel(seed uint64) error {
	const scenarios, sectors = 1 << 18, 2
	fmt.Println("Work-item-sharded parallel engine vs sequential Generate")
	if csvMode {
		fmt.Println("config,seq_mbps,par_mbps,speedup,chunks,workers,steals,imbalance,bitwise_equal")
	}
	for _, c := range decwi.AllConfigs {
		opt := decwi.GenerateOptions{Scenarios: scenarios, Sectors: sectors, Seed: seed}
		t0 := time.Now()
		seq, err := decwi.Generate(c, opt)
		if err != nil {
			return err
		}
		seqDur := time.Since(t0)
		t0 = time.Now()
		// Only the parallel pass is instrumented: timing the sequential
		// baseline with telemetry attached would bias the speedup ratio.
		opt.Telemetry = metricsRec
		par, err := decwi.GenerateParallel(c, decwi.ParallelOptions{GenerateOptions: opt})
		if err != nil {
			return err
		}
		parDur := time.Since(t0)
		equal := len(seq.Values) == len(par.Values)
		for i := range seq.Values {
			if !equal || par.Values[i] != seq.Values[i] {
				equal = false
				break
			}
		}
		bytes := float64(len(seq.Values) * 4)
		seqMBs := bytes / 1e6 / seqDur.Seconds()
		parMBs := bytes / 1e6 / parDur.Seconds()
		if csvMode {
			fmt.Printf("%s,%.2f,%.2f,%.2f,%d,%d,%d,%.2f,%v\n",
				c, seqMBs, parMBs, parMBs/seqMBs, par.Chunks, par.Workers,
				par.Steals, par.ChunkImbalance, equal)
			continue
		}
		verdict := "bitwise-identical"
		if !equal {
			verdict = "OUTPUT DIVERGED"
		}
		fmt.Printf("  %-9s seq %6.2f MB/s  par %6.2f MB/s (x%.2f)  %d chunks/%d workers, %d stolen, imbalance %.2fx  [%s]\n",
			c, seqMBs, parMBs, parMBs/seqMBs, par.Chunks, par.Workers,
			par.Steals, par.ChunkImbalance, verdict)
		if !equal {
			return fmt.Errorf("%s: parallel output diverged from sequential Generate", c)
		}
	}
	fmt.Println()
	return nil
}

func printTable1() error {
	fmt.Println("Table I: simulation setup, application configurations")
	fmt.Printf("%-8s %-18s %-9s %-14s %-7s %s\n", "Config", "U->N transform", "Exponent", "Period", "States", "FPGA work-items")
	for _, c := range decwi.AllConfigs {
		info, err := c.Describe()
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %-18s %-9d 2^(%d-1)    %-7d %d\n",
			info.Name, info.Transform, info.MTExponent, info.MTExponent, info.MTStates, info.FPGAWorkItems)
	}
	fmt.Println()
	return nil
}

func printFig6(seed uint64) error {
	fmt.Println("Fig 6: FPGA gamma distribution vs analytic/oracle benchmark")
	for _, v := range []float64{0.5, 1.39} {
		res, err := decwi.Fig6(v, 200000, seed)
		if err != nil {
			return err
		}
		fmt.Printf("  v=%.2f  n=%d  KS D=%.5f p=%.3f  two-sample p=%.3f\n",
			v, res.Samples, res.KSD, res.KSPValue, res.TwoSampleP)
		// Coarse ASCII density plot: histogram (#) vs analytic pdf (+).
		maxPDF := 0.0
		for _, p := range res.PDF {
			if p > maxPDF {
				maxPDF = p
			}
		}
		for i := 0; i < len(res.BinCenters); i += 4 {
			bar := int(res.Density[i] / maxPDF * 50)
			ref := int(res.PDF[i] / maxPDF * 50)
			if bar > 60 {
				bar = 60
			}
			line := []byte(strings.Repeat(" ", 61))
			for j := 0; j < bar && j < 60; j++ {
				line[j] = '#'
			}
			if ref >= 0 && ref < 61 {
				line[ref] = '+'
			}
			fmt.Printf("  %6.2f |%s\n", res.BinCenters[i], string(line))
		}
	}
	fmt.Println()
	return nil
}

func printFig7() error {
	rows, err := decwi.Fig7(nil, nil)
	if err != nil {
		return err
	}
	fmt.Println("Fig 7: transfers-only runtime (dummy data, 512-bit interface)")
	fmt.Printf("%-10s %-8s %-12s %s\n", "burst RNs", "engines", "runtime", "bandwidth")
	for _, r := range rows {
		fmt.Printf("%-10d %-8d %-12v %.2f GB/s\n", r.BurstRNs, r.Engines, r.Runtime.Round(1e6), r.Bandwidth)
	}
	fmt.Println()
	return nil
}

func printFig8() error {
	res, err := decwi.Fig8(decwi.Config1, "FPGA")
	if err != nil {
		return err
	}
	fmt.Printf("Fig 8: plug power trace, %s on %s (markers: start %v, window %v..%v)\n",
		res.Config, res.Platform, res.KernelStart, res.WindowStart, res.WindowEnd)
	for i := 0; i < len(res.Samples); i += 5 {
		s := res.Samples[i]
		bar := int((s.W - 190) / 2)
		if bar < 0 {
			bar = 0
		}
		if bar > 60 {
			bar = 60
		}
		fmt.Printf("  %5.0fs %6.1fW |%s\n", s.T.Seconds(), s.W, strings.Repeat("#", bar))
	}
	fmt.Printf("  dynamic energy per invocation: %.1f J\n\n", res.EnergyPerInv)
	return nil
}

func printFig9() error {
	rows, err := decwi.Fig9()
	if err != nil {
		return err
	}
	fmt.Println("Fig 9: system-level dynamic energy per kernel invocation")
	fmt.Printf("%-9s %-9s %12s %14s\n", "Config", "Platform", "energy [J]", "ratio vs FPGA")
	for _, r := range rows {
		fmt.Printf("%-9s %-9s %12.1f %14.2f\n", r.Config, r.Platform, r.EnergyJ, r.RatioVsFPGA)
	}
	fmt.Println()
	return nil
}

func printRates(seed uint64) error {
	rows, err := decwi.RejectionRates(200000, seed)
	if err != nil {
		return err
	}
	fmt.Println("Section IV-E: combined rejection rates, measured (paper)")
	for _, r := range rows {
		fmt.Printf("  %-18s v=%-7.2f r=%.4f (%.3f)\n", r.Transform, r.Variance, r.Rate, r.PaperRate)
	}
	fmt.Println()
	return nil
}
