// NDRange example: the Section III-A design choice. The same workload is
// run through the paper's chosen Task formulation (each work-item a fully
// decoupled pipeline with its own stream and burst engine) and through
// the .cl NDRange alternative (work-groups mapped to pipelines,
// work-items time-multiplexed inside). Compute cycles match at equal
// pipeline counts and are invariant to the work-group granularity — but
// the NDRange form scatters every store, which is why the paper builds
// the Task version. The Task form's bursts come from the cycle-accurate
// co-simulation of its streams and Transfer engines.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/decwi/decwi/internal/core"
	"github.com/decwi/decwi/internal/fpga"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

func main() {
	const scenarios = 65536
	base := core.Config{
		Transform: normal.MarsagliaBray, MTParams: mt.MT521Params,
		Scenarios: scenarios, Sectors: 1, SectorVariance: 1.39, Seed: 11,
	}

	// Task formulation: 4 decoupled pipelines.
	taskCfg := base
	taskCfg.WorkItems = 4
	eng, err := core.NewEngine(taskCfg)
	if err != nil {
		log.Fatal(err)
	}
	stats := make([]core.WorkItemStats, taskCfg.WorkItems)
	if err := eng.RunChunk(context.Background(), make([]float32, scenarios), 0, taskCfg.WorkItems, stats); err != nil {
		log.Fatal(err)
	}
	var slowest uint64
	for _, s := range stats {
		slowest = max(slowest, s.Cycles)
	}
	cosim, err := fpga.RunCoSim(fpga.CoSimConfig{
		WorkItems: taskCfg.WorkItems, Quota: scenarios / int64(taskCfg.WorkItems),
		Transform: base.Transform, MTParams: base.MTParams, Variance: base.SectorVariance, Seed: base.Seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Task (.c kernel, Listing 1): 4 pipelines, %d cycles on the slowest,\n", slowest)
	fmt.Printf("  %d full 512-bit bursts issued (co-simulation)\n\n", cosim.Bursts)

	// NDRange formulation at several work-group granularities — same
	// number of pipelines (work-groups), different localSize slicing.
	for _, localSize := range []int{1, 8, 64} {
		res, err := core.RunNDRange(core.NDRangeConfig{
			Config: base, WorkGroups: 4, LocalSize: localSize,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("NDRange (.cl kernel): 4 work-groups × localSize %-3d → %d cycles, %d scattered stores\n",
			localSize, res.MaxCUCycles(), res.ScatteredStores())
	}
	fmt.Println()
	fmt.Println("compute cycles are set by the number of pipelines, not the work-group")
	fmt.Println("granularity (Section III-A) — but only the Task form can fill bursts.")
}
