package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/serve"
)

// A workload is one set of inputs the benchmark runs. The two lib
// workloads are closed loops of one caller into the library facade; the
// two serve workloads are open loops of HTTP jobs against decwi-served.
// Every input derives from the run's seed, so a seed names its inputs.
type workload struct {
	Name string
	Why  string
	// Limit is the latency limit a job must meet to count as goodput.
	Limit time.Duration

	// shape is the generate call of a lib workload, and the engine shape
	// the ledger measures for a serve workload.
	shape func(seed uint64) genShape
	// Rate, in jobs per second, and traffic make a serve workload:
	// traffic returns the specs of n arrivals, the first numbered first.
	Rate    float64
	traffic func(rnd *rand.Rand, seed uint64, first, n int) []serve.JobSpec
	// Round is the number of jobs in one round of the closed-loop phase,
	// enough that every round carries the workload's mix.
	Round int

	// probes are fixed tuples whose payloads are compared byte for byte
	// with in-process decwi.Generate and with probeDigests.
	probes []serve.JobSpec
}

func (w *workload) serve() bool { return w.traffic != nil }

// genShape is one generate tuple without its seed.
type genShape struct {
	Config    decwi.ConfigID
	Scenarios int64
	Sectors   int
	Variance  float64
	Variances []float64
}

func (s genShape) values() int64 { return s.Scenarios * int64(s.Sectors) }

// options is the library call the lib workloads repeat: always one
// worker, because two workers on a 2-vCPU box contend with each other
// and with the garbage collector (see README.md).
func (s genShape) options(seed uint64) decwi.ParallelOptions {
	return decwi.ParallelOptions{
		GenerateOptions: decwi.GenerateOptions{
			Scenarios: s.Scenarios, Sectors: s.Sectors,
			Variance: s.Variance, Variances: s.Variances, Seed: seed,
		},
		Workers: 1,
	}
}

func (s genShape) spec(seed uint64, tenant string) serve.JobSpec {
	return serve.JobSpec{
		Kind: serve.KindGenerate, Config: int(s.Config), Seed: seed,
		Scenarios: s.Scenarios, Sectors: s.Sectors,
		Variance: s.Variance, Variances: s.Variances,
		Workers: 1, Tenant: tenant,
	}
}

// The shapes of the workloads' jobs.
var (
	mbBulk    = genShape{Config: decwi.Config2, Scenarios: 65536, Sectors: 4, Variance: 1.39}
	coldSmall = genShape{Config: decwi.Config4, Scenarios: 20000, Sectors: 2, Variance: 1.39}
	coldLarge = genShape{Config: decwi.Config1, Scenarios: 131072, Sectors: 4, Variance: 1.39}
	hotTuple  = genShape{Config: decwi.Config4, Scenarios: 65536, Sectors: 4, Variance: 1.39}
)

func riskSpec(seed uint64) serve.JobSpec {
	return serve.JobSpec{
		Kind: serve.KindRisk, Config: int(decwi.Config2), Seed: seed,
		Scenarios: 5000, Sectors: 4, Obligors: 100, Workers: 1,
	}
}

// icdfShape draws the paper's 240 per-sector variances in [0.5, 3.0]
// from the seed: both Finish branches run (α = 1/v straddles 1).
func icdfShape(seed uint64) genShape {
	rnd := rand.New(rand.NewPCG(seed, streamVariances))
	v := make([]float64, 240)
	for i := range v {
		v[i] = 0.5 + 2.5*rnd.Float64()
	}
	return genShape{Config: decwi.Config3, Scenarios: 1024, Sectors: 240, Variances: v}
}

// Independent PCG streams per use of the seed.
const (
	streamVariances = iota + 1
	streamSchedule
	streamVerify
	streamRounds
)

// Probe seeds are fixed, so their digests can be committed; workload
// seeds come from splitmix64 and never collide with them in practice.
const probeSeed1, probeSeed2 = 9001, 9002

// Arrival rates of the open-loop phase of the serve workloads, fixed once
// at a fifth of the closed-loop capacity at two connections (98 and 300
// jobs/s), measured on the commit that introduced the benchmark. At half
// the capacity the two connections queue jobs behind each other and the
// run-to-run spread of latency doubles (see README.md). The rates are not
// derived from the code, so a slower commit meets the same load; the
// closed-loop phase is what measures how much load it could take.
const (
	coldMixRate = 20
	zipfHotRate = 60
)

var workloads = []*workload{
	{
		Name:  "lib-mb-bulk",
		Why:   "bulk block path with a rejecting transform: mt, normal and gamma do almost all the work, serve does none",
		Limit: 100 * time.Millisecond,
		shape: func(uint64) genShape { return mbBulk },
		probes: []serve.JobSpec{
			mbBulk.spec(probeSeed1, ""), mbBulk.spec(probeSeed2, ""),
		},
	},
	{
		Name:  "lib-icdf-sectors",
		Why:   "240 sectors of 128-value quotas under one block: the core per-sector tail and re-parameterisation dominate",
		Limit: 200 * time.Millisecond,
		shape: icdfShape,
		probes: []serve.JobSpec{
			icdfShape(probeSeed1).spec(probeSeed1, ""), icdfShape(probeSeed2).spec(probeSeed2, ""),
		},
	},
	{
		Name:    "serve-cold-mix",
		Why:     "distinct small, large and risk jobs: admission lanes, digest, HTTP streaming and creditrisk; the cache is only written",
		Limit:   200 * time.Millisecond,
		shape:   func(uint64) genShape { return coldLarge },
		Rate:    coldMixRate,
		traffic: coldMix,
		Round:   10, // 7 small, 2 large, 1 risk
		probes:  []serve.JobSpec{coldSmall.spec(probeSeed1, ""), riskSpec(probeSeed2)},
	},
	{
		Name:    "serve-zipf-hot",
		Why:     "Zipf draws over 128 tuples of 1 MiB in four tenants: cache reads beside writes and evictions, downloads dominate",
		Limit:   30 * time.Millisecond,
		shape:   func(uint64) genShape { return hotTuple },
		Rate:    zipfHotRate,
		traffic: zipfHot,
		Round:   20,
		probes:  []serve.JobSpec{hotTuple.spec(probeSeed1, "t0"), hotTuple.spec(probeSeed2, "t1")},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// jobSeed gives arrival i of a run its own tuple seed: splitmix64 is a
// bijection, so distinct (seed, i) pairs never share a tuple.
func jobSeed(seed uint64, i int) uint64 {
	z := seed<<24 + uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// coldMix makes exactly 70% small generate, 20% large generate and 10%
// risk jobs in a seeded order, each with a tuple seed of its own.
func coldMix(rnd *rand.Rand, seed uint64, first, n int) []serve.JobSpec {
	small := int(math.Round(0.7 * float64(n)))
	large := int(math.Round(0.2 * float64(n)))
	out := make([]serve.JobSpec, n)
	for i := range out {
		s := jobSeed(seed, first+i)
		switch {
		case i < small:
			out[i] = coldSmall.spec(s, "")
		case i < small+large:
			out[i] = coldLarge.spec(s, "")
		default:
			out[i] = riskSpec(s)
		}
	}
	rnd.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hotCatalogue is the number of distinct tuples zipfHot draws from.
const hotCatalogue = 128

// zipfHot draws Zipf(s=1.1) ranks over the catalogue; tuple i belongs to
// tenant i%4, so 128 MiB of tuples meet a 64 MiB cache of 16 MiB per
// tenant. The n draws are stratified: draw j inverts the Zipf CDF at a
// uniform point of the j-th of n equal slices of [0, 1), and the draws
// are then shuffled. Each draw is still Zipf-distributed, but every batch
// carries the distribution's own share of rare tuples, so how many cache
// misses a closed-loop round meets varies less from round to round and
// from seed to seed (see README.md).
func zipfHot(rnd *rand.Rand, seed uint64, _, n int) []serve.JobSpec {
	out := make([]serve.JobSpec, n)
	for j := range out {
		u := (float64(j) + rnd.Float64()) / float64(n)
		t := min(sort.SearchFloat64s(zipfCDF, u), hotCatalogue-1)
		out[j] = hotTuple.spec(jobSeed(seed, 1<<23+t), fmt.Sprintf("t%d", t%4))
	}
	rnd.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipfCDF[k] is the probability of a rank at most k under Zipf(s=1.1)
// over the catalogue, where rank k has weight (k+1)^-1.1.
var zipfCDF = func() []float64 {
	cdf := make([]float64, hotCatalogue)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -1.1)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}()

// arrival is one scheduled job of an open loop.
type arrival struct {
	Spec     serve.JobSpec
	Due      time.Duration // since the schedule's start
	Measured bool          // due inside the measured window
}

// schedule lays out a Poisson arrival process at rate jobs/s over the
// warm-up and the measured window. Each part carries exactly its expected
// number of arrivals at uniformly drawn times (a Poisson process
// conditioned on its count), so every seed offers the same load.
func schedule(rate float64, traffic func(*rand.Rand, uint64, int, int) []serve.JobSpec,
	seed uint64, warmup, window time.Duration) []arrival {
	rnd := rand.New(rand.NewPCG(seed, streamSchedule))
	var out []arrival
	part := func(from, length time.Duration, measured bool) {
		n := int(math.Round(rate * length.Seconds()))
		due := make([]time.Duration, n)
		for i := range due {
			due[i] = from + time.Duration(rnd.Float64()*float64(length))
		}
		slices.Sort(due)
		for i, spec := range traffic(rnd, seed, len(out), n) {
			out = append(out, arrival{Spec: spec, Due: due[i], Measured: measured})
		}
	}
	part(0, warmup, false)
	part(warmup, window, true)
	return out
}
