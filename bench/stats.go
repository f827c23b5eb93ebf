package main

import (
	"slices"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// overheadPct is how much longer, in percent, the median traced latency
// is than the median untraced one; 0 when a window too short or too slow
// left either side without a sample.
func overheadPct(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return 100 * (median(traced)/median(untraced) - 1)
}

// fastQuarter is the throughput that the faster quarter of a closed
// loop's calls or rounds reach: the 75th percentile of their throughputs.
// Other tenants of a shared host only ever slow a call down, and on a
// 2-vCPU host they slow half of a run's calls or more in some runs and
// few in others. The mean and the median follow that share from run to
// run; a low quantile of the time taken stays with the code.
func fastQuarter(throughputs []float64) float64 { return percentile(throughputs, 0.75) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does by default (the "exclusive" method),
// so -compare reports the same spread as other tooling would.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
