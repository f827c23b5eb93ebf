// Command decwi-creditrisk runs a CreditRisk+ Monte-Carlo portfolio
// analysis on top of the case-study gamma generator, cross-checked
// against the analytic moments and the exact Panjer recursion.
//
// Usage:
//
//	decwi-creditrisk -obligors 500 -sectors 8 -pd 0.02 -exposure 100 -scenarios 100000
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

func main() {
	sectors := flag.Int("sectors", 8, "number of financial sectors")
	variance := flag.Float64("v", 1.39, "sector variance")
	obligors := flag.Int("obligors", 500, "number of obligors")
	pd := flag.Float64("pd", 0.02, "default probability per obligor")
	exposure := flag.Float64("exposure", 100, "exposure (loss given default) per obligor")
	scenarios := flag.Int("scenarios", 100000, "Monte-Carlo scenarios")
	cfgNum := flag.Int("config", 2, "gamma kernel configuration (1-4)")
	band := flag.Float64("band", 0, "exposure banding unit for the exact Panjer cross-check (0 = skip)")
	seed := flag.Uint64("seed", 1, "master seed")
	mflags := metricsrv.RegisterFlags(flag.CommandLine)
	flag.Parse()

	rec := mflags.Recorder()
	_, stopMetrics, err := mflags.Start("decwi-creditrisk", rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decwi-creditrisk: %v\n", err)
		os.Exit(1)
	}
	runErr := run(*sectors, *variance, *obligors, *pd, *exposure, *scenarios, *cfgNum, *band, *seed, rec)
	if err := stopMetrics(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "decwi-creditrisk: %v\n", runErr)
		os.Exit(1)
	}
}

func run(sectors int, variance float64, obligors int, pd, exposure float64, scenarios, cfgNum int, band float64, seed uint64, rec *telemetry.Recorder) error {
	if cfgNum < 1 || cfgNum > 4 {
		return fmt.Errorf("config %d outside 1-4", cfgNum)
	}
	p, err := decwi.NewUniformPortfolio(sectors, variance, obligors, pd, exposure)
	if err != nil {
		return err
	}
	rep, err := decwi.PortfolioRiskObserved(p, decwi.ConfigID(cfgNum), scenarios, band, seed, rec)
	if err != nil {
		return err
	}
	fmt.Printf("CreditRisk+ portfolio analysis (%d obligors, %d sectors, v=%.2f, %d scenarios, %v)\n",
		obligors, sectors, variance, scenarios, decwi.ConfigID(cfgNum))
	fmt.Printf("  expected loss     %12.2f   (analytic %12.2f)\n", rep.ExpectedLoss, rep.AnalyticEL)
	fmt.Printf("  loss std dev      %12.2f   (analytic %12.2f)\n", rep.LossStd, rep.AnalyticStd)
	fmt.Printf("  VaR  99.9%%        %12.2f\n", rep.VaR999)
	fmt.Printf("  ES   99.9%%        %12.2f\n", rep.ES999)
	if band > 0 {
		fmt.Printf("  Panjer VaR 99.9%%  %12.2f   (exact recursion, unit %.2f)\n", rep.PanjerVaR999, band)
	}
	// Top risk contributors (CSFB capital allocation, sums to the std dev).
	type rcEntry struct {
		i  int
		rc float64
	}
	entries := make([]rcEntry, len(rep.RiskContributions))
	for i, c := range rep.RiskContributions {
		entries[i] = rcEntry{i, c}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].rc > entries[b].rc })
	fmt.Println("  top risk contributions (marginal σ allocation):")
	for _, e := range entries[:min(5, len(entries))] {
		fmt.Printf("    obligor %-4d %10.3f\n", e.i, e.rc)
	}
	return nil
}
