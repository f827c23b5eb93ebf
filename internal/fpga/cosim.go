package fpga

import (
	"fmt"

	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/gamma"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/flight"
)

// This file is the cycle-accurate co-simulation of the dataflow region —
// the ground truth the analytic timing model (device.go) is validated
// against, and the direct demonstration of Fig. 3: computation and
// transfers to device global memory interleave, with the work-items
// shifting in time so that the single memory channel is shared without
// stalling the pipelines.
//
// Per clock cycle the co-simulation advances:
//
//   - N generator pipelines (II=1): each steps the *real* gamma
//     generator once, pushing a value into its hls::stream FIFO on valid
//     cycles; a full FIFO stalls the pipeline (blocking write);
//   - N transfer engines: each drains its FIFO into a ping-pong burst
//     buffer (16 values per 512-bit beat); a full buffer requests the
//     channel, and filling continues into the second buffer while the
//     first is in flight (Listing 4's DEPENDENCE=false double buffering);
//   - the memory channel: round-robin arbitration, each burst occupying
//     overhead + beats cycles, plus the engine-side turnaround between
//     its own consecutive bursts.

// CoSimConfig parameterizes one co-simulation run.
type CoSimConfig struct {
	// WorkItems is the number of decoupled compute+transfer pairs.
	WorkItems int
	// Quota is the number of valid outputs each work-item must produce
	// and transfer (single-sector workload).
	Quota int64
	// Transform/MTParams/Variance select the real generator driving the
	// valid-output process. TransfersOnly replaces it with an
	// always-valid producer (the Fig. 7 dummy-data mode).
	Transform     normal.Kind
	MTParams      mt.Params
	Variance      float64
	TransfersOnly bool
	// FIFODepth is the hls::stream depth between the pair (default 64).
	FIFODepth int
	// BurstRNs is the burst length in values (multiple of 16, default 64).
	BurstRNs int
	// Mem supplies overhead/turnaround; zero value selects the default
	// controller.
	Mem MemController
	// Seed drives the generators.
	Seed uint64
	// Telemetry, when non-nil, records cycle-domain spans: per-lane
	// II-stall bubbles (FIFO backpressure, coalesced into spans) and
	// per-burst memory-channel transactions, plus the matching counters
	// for the stall-attribution report.
	Telemetry *telemetry.Recorder
}

func (c CoSimConfig) withDefaults() (CoSimConfig, error) {
	if c.WorkItems < 1 {
		return c, fmt.Errorf("fpga: cosim needs ≥ 1 work-item, got %d", c.WorkItems)
	}
	if c.Quota < 1 {
		return c, fmt.Errorf("fpga: cosim quota %d must be ≥ 1", c.Quota)
	}
	if c.FIFODepth == 0 {
		c.FIFODepth = 64
	}
	if c.FIFODepth < 1 {
		return c, fmt.Errorf("fpga: FIFO depth %d must be ≥ 1", c.FIFODepth)
	}
	if c.BurstRNs == 0 {
		c.BurstRNs = 64
	}
	if c.Mem.WidthBits == 0 {
		c.Mem = DefaultMemController()
	}
	per := c.Mem.RNsPerBeat()
	if c.BurstRNs < per || c.BurstRNs%per != 0 {
		return c, fmt.Errorf("fpga: burst %d must be a positive multiple of %d values", c.BurstRNs, per)
	}
	if !c.TransfersOnly && !(c.Variance > 0) {
		return c, fmt.Errorf("fpga: cosim variance %g must be positive", c.Variance)
	}
	if c.MTParams.N == 0 {
		c.MTParams = mt.MT521Params
	}
	return c, nil
}

// CoSimResult is the cycle-level outcome.
type CoSimResult struct {
	// Cycles is the total cycle count until every value is in memory.
	Cycles int64
	// ComputeDoneCycle is the cycle at which the last pipeline produced
	// its final value; Cycles − ComputeDoneCycle is the transfer tail.
	ComputeDoneCycle int64
	// StalledCycles counts pipeline-cycles lost to FIFO backpressure,
	// summed over work-items.
	StalledCycles int64
	// ChannelBusyCycles counts cycles the memory channel was occupied.
	ChannelBusyCycles int64
	// OverlapCycles counts channel-busy cycles during which at least one
	// pipeline also produced a valid value — the Fig. 3 interleaving.
	OverlapCycles int64
	// Bursts is the number of bursts issued.
	Bursts int64
	// EffectiveBandwidthGBs is payload bytes / (Cycles / clock).
	EffectiveBandwidthGBs float64
}

// OverlapFraction returns OverlapCycles/ChannelBusyCycles — how much of
// the transfer activity was hidden behind computation.
func (r CoSimResult) OverlapFraction() float64 {
	if r.ChannelBusyCycles == 0 {
		return 0
	}
	return float64(r.OverlapCycles) / float64(r.ChannelBusyCycles)
}

// laneState is one work-item's co-simulation state.
type laneState struct {
	gen      *gamma.Generator
	produced int64 // valid outputs pushed so far
	fifo     int   // current FIFO occupancy (values)

	// Ping-pong burst buffers (Listing 4 double buffering).
	buf burstBuffer

	// Telemetry state (inert when tracing is off).
	track      string             // "lane[N]": the lane's cycle-clock track
	cStall     *telemetry.Counter // FIFO-backpressure stall cycles
	stallStart int64              // first cycle of the open stall span, -1 if none
}

// stallSpan closes the lane's open II bubble at cycle as one span.
func (ls *laneState) stallSpan(tr *flight.Trace, cycle int64) {
	tr.Put(flight.Span{Track: ls.track, Clock: flight.CycleClock, Name: "ii-stall",
		StartUS: ls.stallStart, EndUS: cycle, Arg: cycle - ls.stallStart})
	ls.stallStart = -1
}

// RunCoSim executes the co-simulation to completion.
func RunCoSim(cfg CoSimConfig) (CoSimResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return CoSimResult{}, err
	}

	// Hashed per-work-item seeds (see core/engine.go: linear golden-ratio
	// offsets alias with the generator's internal stream split).
	wiSeeds := rng.StreamSeeds(cfg.Seed, cfg.WorkItems)
	rec := cfg.Telemetry
	tr := rec.Trace()
	cCycles := rec.Counter("cosim.cycles", "cycles", "co-simulation clock cycles")
	cBusy := rec.Counter("cosim.channel-busy", "cycles", "memory channel occupied by bursts")
	cBursts := rec.Counter("cosim.bursts", "events", "bursts granted by the channel arbiter")
	cValues := rec.Counter("cosim.burst-values", "values",
		"payload values landed in device memory, bulk-counted per completed burst")
	hBurst := rec.Histogram("cosim.burst-size", "values",
		"payload values per completed burst (tail bursts run short)")
	gQueue := rec.Gauge("cosim.memq-depth", "events",
		"burst requests pending at the memory-controller arbiter")
	hQueue := rec.Histogram("cosim.memq-occupancy", "events",
		"per-cycle pending burst requests at the memory-controller arbiter")
	lanes := make([]*laneState, cfg.WorkItems)
	for i := range lanes {
		ls := &laneState{stallStart: -1}
		ls.buf.capacity = cfg.BurstRNs
		if !cfg.TransfersOnly {
			ls.gen = gamma.NewGenerator(cfg.Transform, cfg.MTParams,
				gamma.MustFromVariance(cfg.Variance), wiSeeds[i])
		}
		if rec != nil {
			ls.track = fmt.Sprintf("lane[%d]", i)
			ls.cStall = rec.Counter(fmt.Sprintf("cosim.fifo-stall[%d]", i), "cycles",
				"pipeline stalled on full hls::stream FIFO (II bubble)")
		}
		lanes[i] = ls
	}

	burstBeats := cfg.BurstRNs / cfg.Mem.RNsPerBeat()
	burstCost := int64(cfg.Mem.BurstOverheadCycles) + int64(burstBeats)
	turnaround := int64(cfg.Mem.EngineTurnaroundCycles)

	var res CoSimResult
	var cycle int64
	var channelFreeAt int64
	rr := 0 // round-robin arbitration pointer
	transferred := int64(0)
	totalValues := cfg.Quota * int64(cfg.WorkItems)
	// Safety horizon: generous bound against deadlock regressions.
	horizon := totalValues*200 + 1_000_000

	for transferred < totalValues {
		if cycle > horizon {
			return CoSimResult{}, fmt.Errorf("fpga: cosim exceeded %d cycles — deadlock or starvation", horizon)
		}
		producedThisCycle := false

		// 1. Channel grant: round-robin over engines with a pending
		// burst, respecting per-engine turnaround.
		if cycle >= channelFreeAt {
			for k := 0; k < cfg.WorkItems; k++ {
				ls := lanes[(rr+k)%cfg.WorkItems]
				if ls.buf.wantsGrant(cycle) {
					ls.buf.grant(cycle, burstCost, turnaround)
					channelFreeAt = cycle + burstCost
					res.Bursts++
					cBursts.Add(1)
					rr = (rr + k + 1) % cfg.WorkItems
					break
				}
			}
		}
		if cycle < channelFreeAt {
			res.ChannelBusyCycles++
			cBusy.Add(1)
		}

		// Queue-depth sample: burst requests still pending after this
		// cycle's arbitration (only when tracing — the scan is O(lanes)).
		if rec != nil {
			var pending int64
			for _, ls := range lanes {
				if ls.buf.wantsGrant(cycle) {
					pending++
				}
			}
			gQueue.Set(pending)
			hQueue.Record(pending)
		}

		for _, ls := range lanes {
			// 2. Burst completion: account the transferred payload with a
			// single bulk increment per burst.
			if payload, done := ls.buf.complete(cycle); done {
				transferred += int64(payload)
				cValues.Add(int64(payload))
				hBurst.Record(int64(payload))
				tr.Put(flight.Span{Track: "memctrl", Clock: flight.CycleClock, Name: "mem-burst",
					Detail: ls.track, StartUS: ls.buf.grantCycle, EndUS: cycle, Arg: int64(payload)})
			}

			// 3. Transfer engine: move one value per cycle from the FIFO
			// into the fill buffer (the TLOOP body at II=1); a saturated
			// double buffer refuses the value and back-pressures the FIFO.
			if ls.fifo > 0 && ls.buf.canAccept() {
				ls.fifo--
				ls.buf.push()
			}

			// 4. Generator pipeline (II=1): step unless the FIFO is full
			// (blocking stream write ⇒ pipeline stall).
			if ls.produced < cfg.Quota {
				if ls.fifo >= cfg.FIFODepth {
					res.StalledCycles++
					ls.cStall.Add(1)
					if ls.stallStart < 0 {
						ls.stallStart = cycle
					}
				} else {
					if ls.stallStart >= 0 {
						// The bubble ends: coalesce it into one span.
						ls.stallSpan(tr, cycle)
					}
					valid := true
					if !cfg.TransfersOnly {
						valid = ls.gen.CycleStep().Valid
					}
					if valid {
						ls.fifo++
						ls.produced++
						producedThisCycle = true
						if ls.produced == cfg.Quota && cycle > res.ComputeDoneCycle {
							res.ComputeDoneCycle = cycle
						}
					}
				}
			}
		}

		// Tail flush: when a generator finished, its partial burst must
		// still go out (padded to whole 512-bit beats by the hardware;
		// only the real payload counts toward completion).
		for _, ls := range lanes {
			if ls.produced == cfg.Quota && ls.fifo == 0 {
				ls.buf.flushTail()
			}
		}

		if producedThisCycle && cycle < channelFreeAt {
			res.OverlapCycles++
		}
		cycle++
	}

	// Close any stall span still open at the end of the simulation.
	for _, ls := range lanes {
		if ls.stallStart >= 0 {
			ls.stallSpan(tr, cycle)
		}
	}

	res.Cycles = cycle
	cCycles.Add(cycle)
	sec := float64(cycle) / cfg.Mem.ClockHz
	res.EffectiveBandwidthGBs = float64(totalValues*4) / (sec * 1e9)
	return res, nil
}
