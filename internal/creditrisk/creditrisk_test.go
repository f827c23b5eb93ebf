package creditrisk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/telemetry"
)

func testPortfolio(t *testing.T, sectors, obligors int) *Portfolio {
	t.Helper()
	p, err := UniformPortfolio(PaperSectors(sectors), obligors, 0.02, 100)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPortfolioValidation(t *testing.T) {
	good := testPortfolio(t, 3, 30)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(p *Portfolio){
		"no sectors":      func(p *Portfolio) { p.Sectors = nil },
		"no obligors":     func(p *Portfolio) { p.Obligors = nil },
		"bad variance":    func(p *Portfolio) { p.Sectors[0].Variance = 0 },
		"bad pd low":      func(p *Portfolio) { p.Obligors[0].PD = 0 },
		"bad pd high":     func(p *Portfolio) { p.Obligors[0].PD = 1 },
		"bad exposure":    func(p *Portfolio) { p.Obligors[0].Exposure = 0 },
		"weight count":    func(p *Portfolio) { p.Obligors[0].Weights = []float64{1} },
		"weight sum":      func(p *Portfolio) { p.Obligors[0].Weights[0] = 0.5 },
		"negative weight": func(p *Portfolio) { p.Obligors[0].Weights = []float64{-1, 1, 1} },
	}
	for name, mutate := range cases {
		p := testPortfolio(t, 3, 30)
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestAnalyticMoments(t *testing.T) {
	p := testPortfolio(t, 2, 10) // 10 obligors, PD 0.02, exposure 100
	// E[L] = 10·0.02·100 = 20.
	if el := p.ExpectedLoss(); math.Abs(el-20) > 1e-12 {
		t.Fatalf("E[L] = %g", el)
	}
	// Var = Σ p e² + Σ_k v μ_k²; 5 obligors per sector, μ_k = 5·0.02·100 = 10.
	want := 10*0.02*100*100 + 2*1.39*10*10
	if v := p.LossVariance(); math.Abs(v-want) > 1e-9 {
		t.Fatalf("Var[L] = %g want %g", v, want)
	}
	if m := p.SectorPolyExposure(0); math.Abs(m-10) > 1e-12 {
		t.Fatalf("sector exposure %g", m)
	}
}

// TestMCMatchesAnalyticMoments: the Monte-Carlo engine driven by the
// paper's gamma generator reproduces the closed-form loss moments.
func TestMCMatchesAnalyticMoments(t *testing.T) {
	p := testPortfolio(t, 4, 40)
	res, err := SimulateMC(p, MCConfig{
		Scenarios: 40000, Transform: normal.MarsagliaBray, MTParams: mt.MT521Params, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanLoss-p.ExpectedLoss())/p.ExpectedLoss() > 0.05 {
		t.Errorf("MC mean %g vs analytic %g", res.MeanLoss, p.ExpectedLoss())
	}
	if math.Abs(res.LossVar-p.LossVariance())/p.LossVariance() > 0.10 {
		t.Errorf("MC variance %g vs analytic %g", res.LossVar, p.LossVariance())
	}
	for k, m := range res.SectorMean {
		if math.Abs(m-1) > 0.05 {
			t.Errorf("sector %d factor mean %g, want ≈1", k, m)
		}
	}
	// Configuration equivalence: the ICDF kernels must produce the same
	// risk numbers (they generate the same distribution).
	res2, err := SimulateMC(p, MCConfig{
		Scenarios: 40000, Transform: normal.ICDFFPGA, MTParams: mt.MT521Params, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.MeanLoss-res.MeanLoss)/res.MeanLoss > 0.08 {
		t.Errorf("transforms disagree on mean loss: %g vs %g", res.MeanLoss, res2.MeanLoss)
	}
}

func TestMCErrors(t *testing.T) {
	p := testPortfolio(t, 1, 2)
	if _, err := SimulateMC(p, MCConfig{Scenarios: 0}); err == nil {
		t.Fatal("zero scenarios should fail")
	}
	bad := testPortfolio(t, 1, 2)
	bad.Obligors[0].PD = 0
	if _, err := SimulateMC(bad, MCConfig{Scenarios: 10}); err == nil {
		t.Fatal("invalid portfolio should fail")
	}
}

func TestVaRAndES(t *testing.T) {
	r := &MCResult{Losses: []float64{0, 0, 0, 0, 0, 0, 0, 10, 20, 100}}
	v, err := r.VaR(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if v != 20 { // 9th order statistic of 10 samples
		t.Fatalf("VaR(0.9) = %g", v)
	}
	if top, _ := r.VaR(0.999); top != 100 {
		t.Fatalf("VaR(0.999) = %g", top)
	}
	es, err := r.ExpectedShortfall(0.85)
	if err != nil {
		t.Fatal(err)
	}
	if es < v-1e-12 {
		t.Fatalf("ES %g below its VaR", es)
	}
	if _, err := r.VaR(0); err == nil {
		t.Fatal("q=0 should fail")
	}
	if _, err := r.VaR(1); err == nil {
		t.Fatal("q=1 should fail")
	}
}

func TestBandedPortfolio(t *testing.T) {
	p := testPortfolio(t, 2, 4)
	b, err := NewBandedPortfolio(p, 40) // 100/40 = 2.5 → band 3 (round)
	if err != nil {
		t.Fatal(err)
	}
	for _, band := range b.Bands {
		if band != 3 {
			t.Fatalf("band %d, want 3", band)
		}
	}
	if _, err := NewBandedPortfolio(p, 0); err == nil {
		t.Fatal("zero unit should fail")
	}
	// Tiny exposures band to 1, never 0.
	small := testPortfolio(t, 1, 1)
	small.Obligors[0].Exposure = 0.001
	b2, err := NewBandedPortfolio(small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Bands[0] != 1 {
		t.Fatalf("tiny exposure banded to %d", b2.Bands[0])
	}
}

// TestPanjerMatchesMoments: the exact recursion reproduces the analytic
// mean and variance of the banded portfolio.
func TestPanjerMatchesMoments(t *testing.T) {
	p := testPortfolio(t, 3, 30)
	b, err := NewBandedPortfolio(p, 100) // exposures exactly one unit
	if err != nil {
		t.Fatal(err)
	}
	dist, err := b.PanjerLossDistribution(400)
	if err != nil {
		t.Fatal(err)
	}
	if m := dist.Mass(); math.Abs(m-1) > 1e-6 {
		t.Fatalf("truncated mass %g", m)
	}
	if math.Abs(dist.Mean()-p.ExpectedLoss())/p.ExpectedLoss() > 1e-6 {
		t.Fatalf("Panjer mean %g vs analytic %g", dist.Mean(), p.ExpectedLoss())
	}
	if math.Abs(dist.Variance()-p.LossVariance())/p.LossVariance() > 1e-4 {
		t.Fatalf("Panjer variance %g vs analytic %g", dist.Variance(), p.LossVariance())
	}
}

// TestPanjerMatchesMC: MC quantiles agree with the exact distribution —
// the end-to-end application-level validation of the whole RNG stack.
func TestPanjerMatchesMC(t *testing.T) {
	p := testPortfolio(t, 2, 20)
	b, err := NewBandedPortfolio(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := b.PanjerLossDistribution(300)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateMC(p, MCConfig{
		Scenarios: 60000, Transform: normal.MarsagliaBray, MTParams: mt.MT521Params, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact, err := dist.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := res.VaR(q)
		if err != nil {
			t.Fatal(err)
		}
		// Discrete distribution: allow one exposure unit of slack plus
		// MC noise.
		if math.Abs(mc-exact) > 2*b.Unit {
			t.Errorf("q=%g: MC VaR %g vs Panjer %g", q, mc, exact)
		}
	}
}

func TestPanjerErrors(t *testing.T) {
	p := testPortfolio(t, 1, 2)
	b, _ := NewBandedPortfolio(p, 100)
	if _, err := b.PanjerLossDistribution(0); err == nil {
		t.Fatal("maxUnits 0 should fail")
	}
	dist, err := b.PanjerLossDistribution(50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.Quantile(0); err == nil {
		t.Fatal("q=0 should fail")
	}
	// A quantile beyond the truncated mass must error, not fabricate.
	short, err := b.PanjerLossDistribution(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := short.Quantile(1 - 1e-12); err == nil && short.Mass() < 1-1e-12 {
		t.Fatal("quantile beyond truncation should fail")
	}
}

// TestSectorWithNoObligors: the recursion degrades gracefully when a
// sector has no affiliated obligors.
func TestSectorWithNoObligors(t *testing.T) {
	p := &Portfolio{
		Sectors: PaperSectors(2),
		Obligors: []Obligor{
			{PD: 0.05, Exposure: 100, Weights: []float64{1, 0}},
		},
	}
	b, err := NewBandedPortfolio(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := b.PanjerLossDistribution(100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist.Mean()-5) > 1e-9 {
		t.Fatalf("mean %g, want 5", dist.Mean())
	}
}

func BenchmarkSimulateMC(b *testing.B) {
	p, err := UniformPortfolio(PaperSectors(8), 100, 0.02, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateMC(p, MCConfig{
			Scenarios: 1000, Transform: normal.MarsagliaBray, MTParams: mt.MT521Params, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPanjer(b *testing.B) {
	p, err := UniformPortfolio(PaperSectors(8), 200, 0.02, 100)
	if err != nil {
		b.Fatal(err)
	}
	bp, err := NewBandedPortfolio(p, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.PanjerLossDistribution(600); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPanjerHeterogeneousBands: a portfolio with several distinct
// exposure bands — the recursion must reproduce the analytic moments and
// match the MC quantiles on a genuinely multi-band severity polynomial.
func TestPanjerHeterogeneousBands(t *testing.T) {
	p := &Portfolio{Sectors: PaperSectors(2)}
	for i := 0; i < 30; i++ {
		w := make([]float64, 2)
		w[i%2] = 1
		p.Obligors = append(p.Obligors, Obligor{
			PD:       0.01 + 0.001*float64(i%5),
			Exposure: float64(100 * (1 + i%4)), // bands 1..4 units
			Weights:  w,
		})
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := NewBandedPortfolio(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Bands must span 1..4.
	seen := map[int]bool{}
	for _, band := range b.Bands {
		seen[band] = true
	}
	for want := 1; want <= 4; want++ {
		if !seen[want] {
			t.Fatalf("band %d missing from the test portfolio", want)
		}
	}
	dist, err := b.PanjerLossDistribution(600)
	if err != nil {
		t.Fatal(err)
	}
	if m := dist.Mass(); math.Abs(m-1) > 1e-6 {
		t.Fatalf("mass %g", m)
	}
	if math.Abs(dist.Mean()-p.ExpectedLoss())/p.ExpectedLoss() > 1e-6 {
		t.Fatalf("mean %g vs analytic %g", dist.Mean(), p.ExpectedLoss())
	}
	if math.Abs(dist.Variance()-p.LossVariance())/p.LossVariance() > 1e-4 {
		t.Fatalf("variance %g vs analytic %g", dist.Variance(), p.LossVariance())
	}
	res, err := SimulateMC(p, MCConfig{
		Scenarios: 60000, Transform: normal.ICDFFPGA, MTParams: mt.MT521Params, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.9, 0.99} {
		exact, err := dist.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := res.VaR(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mc-exact) > 3*b.Unit {
			t.Errorf("q=%g: MC %g vs Panjer %g", q, mc, exact)
		}
	}
}

// TestRiskContributionsEulerConsistency: the capital allocation sums to
// exactly the portfolio loss standard deviation, concentrated obligors
// carry more risk, and degenerate inputs error.
func TestRiskContributions(t *testing.T) {
	p := testPortfolio(t, 3, 30)
	rc, err := p.RiskContributions()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range rc {
		if c <= 0 {
			t.Fatal("risk contributions must be positive")
		}
		sum += c
	}
	sigma := math.Sqrt(p.LossVariance())
	if math.Abs(sum-sigma)/sigma > 1e-12 {
		t.Fatalf("Euler consistency broken: ΣRC=%g vs σ=%g", sum, sigma)
	}
	// A doubled-exposure obligor must carry more than double the risk of
	// its peers (the e_i² term makes contributions convex in exposure).
	big := testPortfolio(t, 3, 30)
	big.Obligors[0].Exposure *= 2
	rc2, err := big.RiskContributions()
	if err != nil {
		t.Fatal(err)
	}
	if rc2[0] <= 2*rc2[1] {
		t.Fatalf("concentration not penalized: %g vs peer %g", rc2[0], rc2[1])
	}
	bad := testPortfolio(t, 1, 2)
	bad.Obligors[0].PD = 0
	if _, err := bad.RiskContributions(); err == nil {
		t.Fatal("invalid portfolio should fail")
	}
}

// mcDigest is the SHA-256 of everything a Monte-Carlo run reports, in
// a fixed order: each loss, the two sample moments and each sector mean
// as little-endian float64 bits, then every histogram of the run's
// recorder in name order — name, count, sum and each bucket as
// little-endian int64.
func mcDigest(res *MCResult, rec *telemetry.Recorder) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, l := range res.Losses {
		put(math.Float64bits(l))
	}
	put(math.Float64bits(res.MeanLoss))
	put(math.Float64bits(res.LossVar))
	for _, m := range res.SectorMean {
		put(math.Float64bits(m))
	}
	var snaps []telemetry.HistogramSnapshot
	for _, hist := range rec.Histograms() {
		snaps = append(snaps, hist.Snapshot())
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Name < snaps[j].Name })
	for _, sn := range snaps {
		h.Write([]byte(sn.Name))
		put(uint64(sn.Count))
		put(uint64(sn.Sum))
		for _, bk := range sn.Buckets {
			put(uint64(bk))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimulateMCPipeEquivalence pins the gamma→loss pipe against
// history: each digest (mcDigest) was recorded while the gated per-draw
// path still existed beside the pipe and the two produced equal
// digests, so a match proves the pipe still reproduces gated
// consumption — losses, sample moments, sector means and the per-sector
// rejection-trip histograms bucket for bucket. The scenario counts
// cover quotas below one candidate block, exactly one block, one past
// the boundary, and many blocks plus a tail.
func TestSimulateMCPipeEquivalence(t *testing.T) {
	p := testPortfolio(t, 3, 12)
	for _, tc := range []struct {
		scenarios int
		want      string
	}{
		{1, "ad292d0c576e6d695788ff080e84e91068e73f3cf816895367b29f1fa67d6dd5"},
		{63, "811683f7521906d0eaba07da1a0d5f4039b5e762734044ea0377279a1c28d6be"},
		{64, "57229cb9ce4b6a19bfa79911ad041a48ede24f273fc10daa08d47cb5d8fa58a1"},
		{65, "3a281569f21c3ccb06ccbeab580e3ca80dd6ccad54b3891e3a20b455fd099820"},
		{700, "a7a2f4c32f03cdbc14b9c6356309242f36a8117d1fd8859c499e7f389c932712"},
	} {
		rec := telemetry.New(64)
		res, err := SimulateMC(p, MCConfig{
			Scenarios: tc.scenarios,
			Transform: normal.MarsagliaBray, MTParams: mt.MT521Params,
			Seed: 0x90E1A055, Telemetry: rec,
		})
		if err != nil {
			t.Fatalf("scenarios=%d: %v", tc.scenarios, err)
		}
		trips := 0
		for _, hist := range rec.Histograms() {
			if strings.HasPrefix(hist.Name(), "rng.gamma.trips[sector-") && hist.Snapshot().Count > 0 {
				trips++
			}
		}
		if trips != len(p.Sectors) {
			t.Fatalf("scenarios=%d: %d populated trip histograms, want one per sector (%d)", tc.scenarios, trips, len(p.Sectors))
		}
		if got := mcDigest(res, rec); got != tc.want {
			t.Fatalf("scenarios=%d: digest %s, golden %s", tc.scenarios, got, tc.want)
		}
	}
}

// PaperSectors returns the Section IV-B setup: numSectors sectors at the
// representative variance v = 1.39.
func PaperSectors(numSectors int) []Sector {
	out := make([]Sector, numSectors)
	for k := range out {
		out[k] = Sector{Name: fmt.Sprintf("S%d", k), Variance: 1.39}
	}
	return out
}

// Mean returns the mean loss of the (truncated) distribution.
func (d *LossDistribution) Mean() float64 {
	var m float64
	for n, p := range d.PMF {
		m += float64(n) * p
	}
	return m * d.Unit
}

// Variance returns the variance of the (truncated) distribution.
func (d *LossDistribution) Variance() float64 {
	mean := d.Mean() / d.Unit
	var v float64
	for n, p := range d.PMF {
		dlt := float64(n) - mean
		v += dlt * dlt * p
	}
	return v * d.Unit * d.Unit
}
