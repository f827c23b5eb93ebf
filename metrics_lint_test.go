package decwi_test

import (
	"context"
	"regexp"
	"testing"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/fpga"
	"github.com/decwi/decwi/internal/perf"
	"github.com/decwi/decwi/internal/serve"
	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

// metricNameRE is the repo naming convention once bracket instance
// groups are stripped: dot-separated lowercase segments, dashes allowed
// after the first segment ("rejection.gamma-loop", "engine.fused-blocks").
var metricNameRE = regexp.MustCompile(`^[a-z0-9]+(\.[a-z0-9-]+)+$`)

// instanceRE constrains what may appear inside a bracket group.
var instanceRE = regexp.MustCompile(`^[a-z0-9-]+$`)

var bracketRE = regexp.MustCompile(`\[[^\]]*\]`)

// TestMetricNamingLint drives every instrumented subsystem against one
// recorder and lints the full registry: each name follows the
// convention, carries a description (the /metrics HELP line would
// otherwise be empty), and the Prometheus mangling stays collision-free
// — no two raw names may fold onto the same (family, instance) pair,
// and no family may span two instrument types.
func TestMetricNamingLint(t *testing.T) {
	rec := telemetry.New(0)

	// Functional engine + session/queue layer.
	sess, err := decwi.NewSession("FPGA")
	if err != nil {
		t.Fatal(err)
	}
	sess.SetTelemetry(rec)
	if _, err := sess.EnqueueGamma(decwi.Config2, decwi.GenerateOptions{
		Scenarios: 4096, Sectors: 2, Seed: 3,
	}, false); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// Work-stealing parallel scheduler.
	if _, err := decwi.GenerateParallel(decwi.Config1, decwi.ParallelOptions{
		GenerateOptions: decwi.GenerateOptions{
			Scenarios: 4096, Sectors: 1, Seed: 3, Telemetry: rec,
		},
	}); err != nil {
		t.Fatal(err)
	}

	// Cycle-accurate co-simulation (memory controller + lanes).
	if _, err := fpga.RunCoSim(fpga.CoSimConfig{
		WorkItems: 2, Quota: 512,
		Transform: perf.Config2.Transform, MTParams: perf.Config2.MTParams,
		Variance: 1.39, Seed: 3, Telemetry: rec,
	}); err != nil {
		t.Fatal(err)
	}

	// CreditRisk+ application layer.
	p, err := decwi.NewUniformPortfolio(2, 1.39, 20, 0.02, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decwi.PortfolioRiskObserved(p, decwi.Config2, 500, 0, 3, rec); err != nil {
		t.Fatal(err)
	}

	// Job-service scheduler: the serve.* gauges/histograms plus the
	// per-tenant bracket counters ("serve.jobs-admitted[tenant]") must
	// follow the same grammar as the engine instruments.
	sched := serve.New(serve.Config{Executors: 1, QueueDepth: 4, Telemetry: rec})
	job, err := sched.Submit(serve.JobSpec{
		Kind: serve.KindGenerate, Config: 2, Scenarios: 4096,
		Sectors: 1, Workers: 1, Seed: 3, Tenant: "lint-tenant",
	})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if err := sched.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	type instrument struct {
		name, desc, kind string
	}
	var all []instrument
	for _, c := range rec.Counters() {
		all = append(all, instrument{c.Name(), c.Desc(), "counter"})
	}
	for _, g := range rec.Gauges() {
		all = append(all, instrument{g.Name(), g.Desc(), "gauge"})
	}
	for _, h := range rec.Histograms() {
		all = append(all, instrument{h.Name(), h.Desc(), "histogram"})
	}
	if len(all) < 20 {
		t.Fatalf("workload registered only %d instruments; the lint is not seeing the stack", len(all))
	}

	series := map[string]string{}  // family+instance → raw name
	famType := map[string]string{} // family → instrument type
	for _, in := range all {
		stripped := bracketRE.ReplaceAllString(in.name, "")
		if !metricNameRE.MatchString(stripped) {
			t.Errorf("%s %q: name (brackets stripped: %q) violates ^[a-z0-9]+(\\.[a-z0-9-]+)+$", in.kind, in.name, stripped)
		}
		for _, m := range bracketRE.FindAllString(in.name, -1) {
			if inst := m[1 : len(m)-1]; !instanceRE.MatchString(inst) {
				t.Errorf("%s %q: instance %q violates ^[a-z0-9-]+$", in.kind, in.name, inst)
			}
		}
		if in.desc == "" {
			t.Errorf("%s %q: empty description (would emit a blank HELP line)", in.kind, in.name)
		}

		family, instance := metricsrv.MangleName(in.name)
		key := family + "{" + instance + "}"
		if prev, ok := series[key]; ok && prev != in.name {
			t.Errorf("mangling collision: %q and %q both map to %s", prev, in.name, key)
		}
		series[key] = in.name
		if prev, ok := famType[family]; ok && prev != in.kind {
			t.Errorf("family %s used as both %s and %s", family, prev, in.kind)
		}
		famType[family] = in.kind
	}
	t.Logf("linted %d instruments across %d families", len(all), len(famType))
}
