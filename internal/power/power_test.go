package power

import (
	"math"
	"testing"
	"time"

	"github.com/decwi/decwi/internal/fpga"
	"github.com/decwi/decwi/internal/perf"
)

func TestDynamicPowerTable(t *testing.T) {
	for _, platform := range []string{"CPU", "GPU", "PHI", "FPGA"} {
		for _, cfg := range perf.AllConfigs {
			w, err := DynamicPowerW(platform, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if w <= 0 || w > 300 {
				t.Errorf("%s/%s: implausible dynamic power %g W", platform, cfg.Name, w)
			}
		}
	}
	if _, err := DynamicPowerW("TPU", perf.Config1); err == nil {
		t.Error("unknown platform should fail")
	}
	// The FPGA draws the least in every configuration.
	for _, cfg := range perf.AllConfigs {
		fw, _ := DynamicPowerW("FPGA", cfg)
		for _, other := range []string{"CPU", "GPU", "PHI"} {
			ow, _ := DynamicPowerW(other, cfg)
			if fw >= ow {
				t.Errorf("%s/%s: FPGA %g W not below %g W", other, cfg.Name, fw, ow)
			}
		}
	}
}

func TestSynthesizeTraceValidation(t *testing.T) {
	if _, err := SynthesizeTrace(0, time.Second, 150*time.Second); err == nil {
		t.Error("zero power should fail")
	}
	if _, err := SynthesizeTrace(50, 0, 150*time.Second); err == nil {
		t.Error("zero runtime should fail")
	}
	if _, err := SynthesizeTrace(50, time.Second, 60*time.Second); err == nil {
		t.Error("short busy window should fail")
	}
}

// TestTraceShape checks the Fig. 8 anatomy: idle lead-in near 204 W, a
// loaded plateau near idle+dynamic, markers in order, and a return to
// idle.
func TestTraceShape(t *testing.T) {
	const dyn = 78.0
	tr, err := SynthesizeTrace(dyn, 3825*time.Millisecond, 150*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !(tr.KernelStart < tr.WindowStart && tr.WindowStart < tr.WindowEnd) {
		t.Fatalf("marker order broken: %v %v %v", tr.KernelStart, tr.WindowStart, tr.WindowEnd)
	}
	if tr.WindowEnd-tr.WindowStart != 100*time.Second {
		t.Fatalf("integration window %v, want 100 s", tr.WindowEnd-tr.WindowStart)
	}
	idle, err := tr.MeanPower(0, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idle-IdleSystemW) > 1 {
		t.Fatalf("idle level %g W", idle)
	}
	plateau, err := tr.MeanPower(tr.WindowStart, tr.WindowEnd)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plateau-(IdleSystemW+dyn)) > 1.5 {
		t.Fatalf("plateau %g W, want ≈ %g", plateau, IdleSystemW+dyn)
	}
	// Tail returns to idle.
	last := tr.Samples[len(tr.Samples)-1]
	if math.Abs(last.W-IdleSystemW) > 1 {
		t.Fatalf("tail %g W", last.W)
	}
	// The enqueue spike exists shortly after the first marker.
	var spike float64
	for _, s := range tr.Samples {
		if s.T >= tr.KernelStart && s.T < tr.KernelStart+3*time.Second && s.W > spike {
			spike = s.W
		}
	}
	if spike < IdleSystemW+10 {
		t.Fatalf("no dispatch spike visible (max %g W)", spike)
	}
}

// TestIntegrateKnownSignal: integrating a clipped window of a known
// constant-plus-ramp trace gives the analytic value.
func TestIntegrateKnownSignal(t *testing.T) {
	tr := &Trace{}
	for i := 0; i <= 10; i++ {
		tr.Samples = append(tr.Samples, Sample{T: time.Duration(i) * time.Second, W: float64(10 * i)})
	}
	// ∫₀¹⁰ 10t dt = 500.
	j, err := tr.Integrate(0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-500) > 1e-9 {
		t.Fatalf("integral %g, want 500", j)
	}
	// Clipped: ∫_{2.5}^{7.5} 10t dt = 5·(56.25−6.25) = 250.
	j, err = tr.Integrate(2500*time.Millisecond, 7500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-250) > 1e-9 {
		t.Fatalf("clipped integral %g, want 250", j)
	}
	if _, err := tr.Integrate(5*time.Second, 5*time.Second); err == nil {
		t.Error("empty window should fail")
	}
	if _, err := (&Trace{}).Integrate(0, time.Second); err == nil {
		t.Error("empty trace should fail")
	}
}

// TestEnergyPerInvocationRecoversPT: the full measurement procedure on a
// synthesized trace recovers P·t within the meter/ripple tolerance.
func TestEnergyPerInvocationRecoversPT(t *testing.T) {
	const dyn = 45.0
	rt := 701 * time.Millisecond
	tr, err := SynthesizeTrace(dyn, rt, 150*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	e, err := tr.DynamicEnergyPerInvocation()
	if err != nil {
		t.Fatal(err)
	}
	want := dyn * rt.Seconds()
	if math.Abs(e-want)/want > 0.02 {
		t.Fatalf("per-invocation energy %g J, want ≈ %g J", e, want)
	}
}

// TestFig9Ratios reproduces the paper's headline energy-efficiency
// claims: 9.5x/7.9x/4.1x vs CPU/GPU/PHI under Config1, a ≈2.2x minimum
// vs GPU and PHI under Config4, and FPGA best in ALL cells.
func TestFig9Ratios(t *testing.T) {
	cells, err := Fig9(fpga.PaperWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 16 {
		t.Fatalf("cells %d, want 4 configs × 4 platforms", len(cells))
	}
	ratio := func(config, platform string) float64 {
		r, err := EfficiencyRatio(cells, config, platform)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	checks := []struct {
		config, platform string
		paper            float64
		tol              float64
	}{
		{"Config1", "CPU", 9.5, 0.25},
		{"Config1", "GPU", 7.9, 0.25},
		{"Config1", "PHI", 4.1, 0.25},
		{"Config4", "GPU", 2.2, 0.30},
		{"Config4", "PHI", 2.2, 0.30},
	}
	for _, c := range checks {
		got := ratio(c.config, c.platform)
		if math.Abs(got-c.paper)/c.paper > c.tol {
			t.Errorf("%s vs %s: efficiency ratio %.2f, paper %.1f", c.config, c.platform, got, c.paper)
		}
	}
	// "The FPGA solution shows the best energy efficiency in all cases"
	// with at least ~2x margin everywhere.
	for _, cfg := range perf.AllConfigs {
		for _, platform := range []string{"CPU", "GPU", "PHI"} {
			if r := ratio(cfg.Name, platform); r < 1.8 {
				t.Errorf("%s vs %s: ratio %.2f below the paper's ≈2.2 minimum", cfg.Name, platform, r)
			}
		}
	}
	if _, err := EfficiencyRatio(cells, "Config9", "CPU"); err == nil {
		t.Error("missing config should fail")
	}
}

func BenchmarkFig9(b *testing.B) {
	perf.MeasuredIters(perf.Config1.Transform)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig9(fpga.PaperWorkload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesizeTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = SynthesizeTrace(78, 3825*time.Millisecond, 150*time.Second)
	}
}

// MeanPower returns the average plug power over a window.
func (tr *Trace) MeanPower(from, to time.Duration) (float64, error) {
	j, err := tr.Integrate(from, to)
	if err != nil {
		return 0, err
	}
	return j / (to - from).Seconds(), nil
}
