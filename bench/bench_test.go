package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// child process of every workload.
func TestMain(m *testing.M) {
	if cfg := os.Getenv(childEnv); cfg != "" {
		os.Exit(childMain(cfg, os.Stdout))
	}
	os.Exit(m.Run())
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, defs []metricDef, got []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i] != d {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], d)
			}
			if !name.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", kind, d.Name)
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if !(m.Bound > 0 && m.Bound <= 0.25) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	check("end_to_end", e2eDefs, e2e)
	check("per_layer", layerDefs, layers)
}

// TestWorkloadsSmoke runs every workload traced for about a second. Each
// must be correct (probe digests included) and emit every metric with its
// unit, and on the lib workloads the ledger must account for the timed
// call and for CycleBlock within 15%, except under the race detector.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	served, err := buildServed(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runChild(runConfig{
				Mode: "run", Workload: w.Name, Seed: 1, Window: time.Second, Warmup: 200 * time.Millisecond,
				Trace: true, Served: served, Setups: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, attempted %d, failed %d: %s", res.Correct, res.Attempted, res.Failed, strings.Join(res.Failures, "; "))
			}
			emitted := func(defs []metricDef, got map[string]metric) {
				for _, d := range defs {
					m, ok := got[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if len(got) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(got), len(defs))
				}
			}
			emitted(e2eDefs, res.EndToEnd)
			emitted(layerDefs, res.PerLayer)
			if w.serve() || raceEnabled { // under -race, the layers' shares of a call do not add up
				return
			}
			for _, name := range []string{"ledger.residual_pct", "gamma.block_residual_pct"} {
				if v := res.PerLayer[name].Value; math.Abs(v) > 15 {
					t.Errorf("%s = %.2f%%, want within ±15%%", name, v)
				}
			}
		})
	}
}

// TestZipfHotStratified checks that n stratified draws give every tuple
// within two of its expected n·P(k) draws, in its own tenant.
func TestZipfHotStratified(t *testing.T) {
	const seed, n = 7, 1000
	rank := map[uint64]int{}
	for k := 0; k < hotCatalogue; k++ {
		rank[jobSeed(seed, 1<<23+k)] = k
	}
	count := make([]int, hotCatalogue)
	for _, spec := range zipfHot(rand.New(rand.NewPCG(seed, streamSchedule)), seed, 0, n) {
		k, ok := rank[spec.Seed]
		if !ok || spec.Tenant != fmt.Sprintf("t%d", k%4) {
			t.Fatalf("draw %+v is no catalogue tuple in its tenant", spec)
		}
		count[k]++
	}
	prev := 0.0
	for k, c := range count {
		if want := n * (zipfCDF[k] - prev); math.Abs(float64(c)-want) >= 2 {
			t.Errorf("rank %d: %d draws, want %.2f", k, c, want)
		}
		prev = zipfCDF[k]
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %g, %g; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		a, b   []float64
		higher bool
		want   string
	}{
		{steady, []float64{103, 104, 102, 103, 103}, false, "ok"},
		{steady, []float64{115, 116, 114, 115, 115}, false, "regressed"},
		{steady, []float64{85, 86, 84, 85, 85}, true, "regressed"},
		{steady, []float64{60, 100, 140, 100, 100}, false, "unresolved"},
		{[]float64{60, 100, 140, 100, 100}, []float64{30, 31, 32, 33, 34}, false, "ok"},
	} {
		if got := verdict(tc.a, tc.b, tc.higher, 0.1); got != tc.want {
			t.Errorf("verdict(%v, %v, higher=%v) = %s, want %s", tc.a, tc.b, tc.higher, got, tc.want)
		}
	}
}
