// Command decwi-gammagen generates gamma-distributed random numbers with
// the decoupled work-item engine and writes them to stdout or a file —
// the case-study kernel as a standalone tool.
//
// Usage:
//
//	decwi-gammagen -config 2 -n 1000000 -v 1.39 -out gammas.f32
//	decwi-gammagen -config 1 -n 100000 -text | head
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/profiling"
	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

func main() {
	cfgNum := flag.Int("config", 2, "application configuration (1-4, Table I)")
	n := flag.Int64("n", 1000000, "number of gamma variates to generate")
	variance := flag.Float64("v", 1.39, "sector variance (alpha=1/v, beta=v)")
	workItems := flag.Int("workitems", 0, "decoupled work-items (0 = P&R default)")
	seed := flag.Uint64("seed", 1, "master seed")
	offset := flag.Uint64("offset", 0, "fast-forward every work-item's streams by this many state words with the O(log n) jump-ahead (checkpoint/resume; 0 = the seed state)")
	parallel := flag.Bool("parallel", false, "generate with the work-stealing parallel engine (same output bytes)")
	workers := flag.Int("workers", 0, "parallel: concurrent scheduler workers (0 = GOMAXPROCS)")
	out := flag.String("out", "", "output file (default stdout)")
	text := flag.Bool("text", false, "write one decimal value per line instead of raw float32 LE")
	validate := flag.Bool("validate", true, "run the KS validation and report it on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mflags := metricsrv.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decwi-gammagen: %v\n", err)
		os.Exit(1)
	}
	rec := mflags.Recorder()
	_, stopMetrics, err := mflags.Start("decwi-gammagen", rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decwi-gammagen: %v\n", err)
		os.Exit(1)
	}
	runErr := run(*cfgNum, *n, *variance, *workItems, *seed, *offset,
		*parallel, *workers, *out, *text, *validate, rec)
	if err := stopMetrics(); err != nil && runErr == nil {
		runErr = err
	}
	if err := stopProfiles(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "decwi-gammagen: %v\n", runErr)
		os.Exit(1)
	}
}

func run(cfgNum int, n int64, variance float64, workItems int, seed, offset uint64,
	parallel bool, workers int, out string, text, validate bool, rec *telemetry.Recorder) error {
	if cfgNum < 1 || cfgNum > 4 {
		return fmt.Errorf("config %d outside 1-4", cfgNum)
	}
	if n < 1 {
		return fmt.Errorf("n must be ≥ 1")
	}
	cfg := decwi.ConfigID(cfgNum)
	gopt := decwi.GenerateOptions{
		Scenarios: n, Sectors: 1, Variance: variance,
		WorkItems: workItems, Seed: seed, StreamOffset: offset,
		Telemetry: rec,
	}
	// Both paths produce the same bytes for the same options; -parallel
	// only changes how the work-item axis is scheduled onto the host.
	var vals []float32
	if parallel {
		pres, err := decwi.GenerateParallel(cfg, decwi.ParallelOptions{
			GenerateOptions: gopt, Workers: workers,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "decwi-gammagen: %s, %d work-items, rejection rate %.4f, %d chunks on %d workers (%d stolen)\n",
			cfg, pres.WorkItems, pres.RejectionRate, pres.Chunks, pres.Workers, pres.Steals)
		vals = pres.Sector(0)
	} else {
		res, err := decwi.Generate(cfg, gopt)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "decwi-gammagen: %s, %d work-items, rejection rate %.4f, modelled FPGA time %v\n",
			cfg, res.WorkItems, res.RejectionRate, res.FPGATime)
		vals = res.Sector(0)
	}

	if validate {
		d, p, err := decwi.ValidateGamma(vals, variance)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "decwi-gammagen: KS D=%.5f p=%.3f against Gamma(%.4f, %.4f)\n",
			d, p, 1/variance, variance)
		if p < 1e-4 {
			return fmt.Errorf("generated sample failed the KS validation (p=%g)", p)
		}
	}

	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	defer bw.Flush()

	if text {
		for _, v := range vals {
			if _, err := fmt.Fprintf(bw, "%g\n", v); err != nil {
				return err
			}
		}
		return nil
	}
	var buf [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}
