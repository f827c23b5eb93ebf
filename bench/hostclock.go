package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// The host's speed changes under the benchmark. Other tenants of a shared
// 2-vCPU host slow it by 10–30% for minutes at a time, so throughput in
// plain wall time spread 8–22% between runs of the same code, wider than
// a regression bound may be (see README.md). A hostClock measures that
// speed beside the program: after every timed call or round, it times a
// fixed reference kernel on both vCPUs at once. The end-to-end metrics
// are then put at one reference speed, the speed at which the kernel
// takes refNominal. The kernel is this package's own code, so a change
// to the program under test cannot change its work.

// refNominal is the reference kernel's time at the reference speed, about
// its time on an idle vCPU of the host the benchmark was calibrated on.
const refNominal = 2 * time.Millisecond

// refWords is the reference kernel's working set, 64 KiB: it stays in
// the L2 cache, like the program's block buffers.
const refWords = 1 << 14

// refSink keeps the compiler from discarding the reference kernel.
var refSink [2]float64

// refKernel is a fixed mix of integer, floating-point and memory work:
// xorshift words into a buffer, then a logarithm and a square root of
// every other word.
func refKernel(buf []uint32, slot int) {
	x := uint32(2463534242)
	s := 0.0
	for r := 0; r < 16; r++ {
		for i := range buf {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			buf[i] ^= x
		}
		for i := 0; i < len(buf); i += 2 {
			u := (float64(buf[i]) + 0.5) / (1 << 32)
			s += math.Log(u) * math.Sqrt(u)
		}
	}
	refSink[slot] += s
}

// hostClock samples the host's speed. It is used by one goroutine.
type hostClock struct {
	bufs [2][]uint32
	at   []time.Time // when each sample ended
	ref  []float64   // the kernel's mean time on the two vCPUs, ns
}

func newHostClock() *hostClock {
	return &hostClock{bufs: [2][]uint32{make([]uint32, refWords), make([]uint32, refWords)}}
}

// sample runs the reference kernel on two goroutines at once, one per
// vCPU, and records the mean of their times.
func (h *hostClock) sample() {
	var took [2]time.Duration
	var wg sync.WaitGroup
	for i := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			refKernel(h.bufs[i], i)
			took[i] = time.Since(t)
		}()
	}
	wg.Wait()
	h.at = append(h.at, time.Now())
	h.ref = append(h.ref, float64(took[0]+took[1])/2)
}

// slowdown is how much slower than the reference speed the host ran
// around t: the fastest of the five samples nearest to t, over
// refNominal. The fastest, because a stray goroutine or another process
// that overlaps one sample only ever slows it down.
func (h *hostClock) slowdown(t time.Time) float64 {
	if len(h.ref) == 0 {
		return 1
	}
	const near = 5
	i := sort.Search(len(h.at), func(i int) bool { return !h.at[i].Before(t) })
	lo := min(max(i-near/2, 0), max(len(h.ref)-near, 0))
	hi := min(lo+near, len(h.ref))
	return slices.Min(h.ref[lo:hi]) / float64(refNominal)
}

// speed is the host's median speed over the run, relative to the
// reference speed: below 1 when it ran slower.
func (h *hostClock) speed() float64 {
	return float64(refNominal) / median(h.ref)
}

// reportSpeed reports the run's throughput and set-up time, in the
// end-to-end metrics at the reference host speed and in the per-layer
// bench.wall_* metrics as measured. throughput holds each timed call's or
// round's Mvalues/s, and ends when each ended.
func reportSpeed(r *result, clock *hostClock, throughput []float64, ends []time.Time, setups *setupSampler) {
	atRef := make([]float64, len(throughput))
	for i, t := range throughput {
		atRef[i] = t * clock.slowdown(ends[i])
	}
	var setup, setupAtRef []float64
	for i, d := range setups.times {
		setup = append(setup, d.Seconds())
		setupAtRef = append(setupAtRef, d.Seconds()/clock.slowdown(setups.ends[i]))
	}
	r.e2e("throughput_mvalues_s", fastQuarter(atRef))
	r.e2e("setup_s", median(setupAtRef))
	r.layer("bench.wall_throughput_mvalues_s", fastQuarter(throughput))
	r.layer("bench.wall_setup_s", median(setup))
	r.layer("bench.host_speed", clock.speed())
}
