// Package core implements the paper's primary contribution: fully
// decoupled OpenCL work-items on an FPGA-style dataflow substrate.
//
// The structure mirrors the paper's listings one to one:
//
//   - Engine / DecoupledWorkItems (Listing 1): N independent
//     compute+transfer pairs, each with its own streams and its own
//     pointer (offset) into device global memory, scheduled in parallel
//     as a DATAFLOW region.
//   - gammaRNG (Listing 2): the single fully pipelined block computing,
//     correcting and only afterwards validating each gamma candidate,
//     with the delayed-counter MAINLOOP exit.
//   - Transfer (Listing 4): reading the work-item's stream, packing 16
//     single-precision values into 512-bit words, and issuing fixed-
//     length bursts at the work-item's own offset (device-level buffer
//     combining, Section III-E-2).
//
// Run executes that structure as the hardware model. The host's one
// generation path is RunChunk: the same gammaRNG body, writing each
// candidate block straight into the device-layout buffer with no
// streams, bitwise-identical to Run.
//
// The engine is *functional*: it produces the actual gamma data the
// validation layer (Fig. 6) and the CreditRisk+ application consume.
// Timing is modelled separately by internal/fpga from the statistics this
// engine records (cycles, rejection rates, burst counts).
package core

// WordRNs is the packing factor of the 512-bit memory interface: 16
// single-precision values per beat (Listing 4's g512 / the float16 of an
// NDRange kernel).
const WordRNs = 16

// Word512 is one 512-bit beat of packed gamma values.
type Word512 [WordRNs]float32
