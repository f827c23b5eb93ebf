// Command decwi-pnr explores the FPGA place-and-route space: resource
// utilization as decoupled work-items are added one at a time, until the
// fit fails — the paper's Section IV-C procedure as an interactive tool.
//
// Usage:
//
//	decwi-pnr              # sweep all four configurations
//	decwi-pnr -config 3    # sweep one configuration
package main

import (
	"flag"
	"fmt"
	"os"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

func main() {
	cfgNum := flag.Int("config", 0, "configuration to sweep (1-4; 0 = all)")
	mflags := metricsrv.RegisterFlags(flag.CommandLine)
	flag.Parse()

	rec := mflags.Recorder()
	_, stopMetrics, err := mflags.Start("decwi-pnr", rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decwi-pnr: %v\n", err)
		os.Exit(1)
	}
	defer stopMetrics()
	cPlacements := rec.Counter("pnr.placements", "events",
		"place-and-route attempts evaluated across the sweep")

	configs := decwi.AllConfigs
	if *cfgNum != 0 {
		if *cfgNum < 1 || *cfgNum > 4 {
			fmt.Fprintf(os.Stderr, "decwi-pnr: config %d outside 1-4\n", *cfgNum)
			os.Exit(2)
		}
		configs = []decwi.ConfigID{decwi.ConfigID(*cfgNum)}
	}
	for _, c := range configs {
		rows, err := decwi.PnRSweep(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "decwi-pnr: %v\n", err)
			os.Exit(1)
		}
		cPlacements.Add(int64(len(rows)))
		info, err := c.Describe()
		if err != nil {
			fmt.Fprintf(os.Stderr, "decwi-pnr: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s (%s, MT exponent %d): iterative place-and-route\n", info.Name, info.Transform, info.MTExponent)
		fmt.Printf("  %3s  %8s  %8s  %8s  %10s\n", "WI", "Slice%", "DSP%", "BRAM%", "OCL-corr%")
		for _, r := range rows {
			fmt.Printf("  %3d  %8.2f  %8.2f  %8.2f  %10.2f\n",
				r.WorkItems, r.SlicePct, r.DSPPct, r.BRAMPct, r.CorrectedSlicePct)
		}
		last := rows[len(rows)-1]
		fmt.Printf("  -> P&R fails at %d work-items (limited by %s)\n\n", last.WorkItems+1, last.LimitedBy)
	}
}
