package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
)

// benchmarkFile is BENCHMARK.json: the workloads and metrics this
// package defines, with each end-to-end metric's regression bound.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func loadRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareMain compares two sets of -json result files, A (the parent)
// and B (the change), per workload and end-to-end metric. A metric has
// regressed when B's median is worse than A's by more than the bound
// BENCHMARK.json fixes for it; it is unresolved when either side's
// quartile spread exceeds the bound, unless every B run beats every A
// run. It exits 1 when a metric regressed and 2 when the runs cannot be
// compared.
func compareMain(args []string, stdout io.Writer) int {
	i := slices.Index(args, "--")
	if i < 1 || i == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: decwi-bench -compare A.json ... -- B.json ...")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "decwi-bench:", err)
		return 2
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "decwi-bench:", err)
		return 2
	}
	load := func(paths []string) ([]*runFile, error) {
		var out []*runFile
		for _, p := range paths {
			rf, err := loadRunFile(p)
			if err != nil {
				return nil, err
			}
			out = append(out, rf)
		}
		return out, nil
	}
	a, err := load(args[:i])
	if err == nil {
		var b []*runFile
		b, err = load(args[i+1:])
		if err == nil {
			return compareRuns(stdout, bf, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "decwi-bench:", err)
	return 2
}

func compareRuns(stdout io.Writer, bf *benchmarkFile, a, b []*runFile) int {
	env := a[0].Env
	byWorkload := func(files []*runFile) (map[string][]*result, error) {
		out := map[string][]*result{}
		for _, f := range files {
			if !reflect.DeepEqual(f.Env, env) {
				return nil, fmt.Errorf("environments differ: %+v and %+v", env, f.Env)
			}
			for _, r := range f.Results {
				if !r.Correct {
					return nil, fmt.Errorf("%s seed %d was not correct", r.Workload, r.Seed)
				}
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out, nil
	}
	ra, err := byWorkload(a)
	if err == nil {
		var rb map[string][]*result
		if rb, err = byWorkload(b); err == nil {
			return printComparison(stdout, bf, ra, rb)
		}
	}
	fmt.Fprintln(os.Stderr, "decwi-bench: refusing to compare:", err)
	return 2
}

func printComparison(stdout io.Writer, bf *benchmarkFile, ra, rb map[string][]*result) int {
	seeds := func(rs []*result) []uint64 {
		var s []uint64
		for _, r := range rs {
			s = append(s, r.Seed)
		}
		slices.Sort(s)
		return s
	}
	code := 0
	fmt.Fprintf(stdout, "%-18s %-22s %28s %28s %9s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	for _, w := range workloads {
		as, bs := ra[w.Name], rb[w.Name]
		if len(as) == 0 && len(bs) == 0 {
			continue
		}
		if !slices.Equal(seeds(as), seeds(bs)) {
			fmt.Fprintf(os.Stderr, "decwi-bench: refusing to compare %s: seeds %v and %v differ\n", w.Name, seeds(as), seeds(bs))
			return 2
		}
		for _, m := range bf.EndToEnd {
			values := func(rs []*result) []float64 {
				var v []float64
				for _, r := range rs {
					v = append(v, r.EndToEnd[m.Name].Value)
				}
				return v
			}
			va, vb := values(as), values(bs)
			v := verdict(va, vb, m.Better == "higher", m.Bound)
			if v == "regressed" {
				code = 1
			}
			ma, mb := median(va), median(vb)
			q1a, q3a := quartiles(va)
			q1b, q3b := quartiles(vb)
			fmt.Fprintf(stdout, "%-18s %-22s %11.4f [%6.4g, %6.4g] %11.4f [%6.4g, %6.4g] %+8.2f%%  %s\n",
				w.Name, m.Name, ma, q1a, q3a, mb, q1b, q3b, 100*ratio(mb-ma, ma), v)
		}
	}
	return code
}

// spread is the quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

// verdict judges B against A for one metric (see compareMain).
func verdict(a, b []float64, higherIsBetter bool, bound float64) string {
	if spread(a) > bound || spread(b) > bound {
		// Only B beating A in every run survives a spread wider than the
		// bound.
		if higherIsBetter && slices.Min(b) > slices.Max(a) || !higherIsBetter && slices.Max(b) < slices.Min(a) {
			return "ok"
		}
		return "unresolved"
	}
	worse := ratio(median(b)-median(a), median(a))
	if higherIsBetter {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	return "ok"
}
