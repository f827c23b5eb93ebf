package decwi_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	decwi "github.com/decwi/decwi"
)

// The golden table pins the determinism contract against history, not
// only against another live path: every equivalence test compares two
// routes through shared kernels, and a change to a shared piece (a
// kernel, the stream seek, the seed splitter) could move both sides
// together. Each entry is the SHA-256 of the little-endian float32
// bytes of one run's Values (for the risk job, of its report's float64
// fields). A mismatch means the replay tuple no longer reproduces the
// bytes it produced when the table was recorded; the fix is in the
// code, never in the table, unless a stream change is intended and
// announced.

// goldenVariances exercises per-sector re-parameterisation in every
// multi-sector case.
var goldenVariances = []float64{0.5, 1.39, 4.0}

// goldenCase is one replay tuple of the table.
type goldenCase struct {
	name   string
	config decwi.ConfigID
	opt    decwi.ParallelOptions
	want   string
}

func goldenGenerate(sc int64, breakID int) decwi.ParallelOptions {
	return decwi.ParallelOptions{GenerateOptions: decwi.GenerateOptions{
		Scenarios: sc, Sectors: len(goldenVariances), Variances: goldenVariances,
		Seed: 0x601DE7, BreakID: breakID,
	}}
}

// sectorVariances returns n deterministic variances in [0.4, 4.0).
func sectorVariances(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.4 + 3.6*float64((i*37)%n)/float64(n)
	}
	return v
}

func goldenCases() []goldenCase {
	offset := goldenGenerate(3001, 0)
	offset.StreamOffset = 4099
	lanes := goldenGenerate(9001, 0)
	lanes.IntraItemSubstreams = 4
	lanes.Workers = 2
	smallQuota := decwi.ParallelOptions{GenerateOptions: decwi.GenerateOptions{
		Scenarios: 1024, Sectors: 16, Variances: sectorVariances(16), Seed: 12,
	}}
	return []goldenCase{
		{"Config1/BreakID0", decwi.Config1, goldenGenerate(3001, 0), "200591d1c87aaca0b240b55af04a394989156695e9c3c3ceb79b7f5941e58b9a"},
		{"Config1/BreakID2", decwi.Config1, goldenGenerate(3001, 2), "d1aec82ddf479d2e51fe5e76b0282dd815003c016ad24fe38bcf49b6589d0878"},
		{"Config2/BreakID0", decwi.Config2, goldenGenerate(3001, 0), "44b16611c6549a0d718b17fb06249af731944e099137a081e5ef7a31c20f2df9"},
		{"Config2/BreakID2", decwi.Config2, goldenGenerate(3001, 2), "f10806d63efbfa36d187ab95d512f4b8f68d9c1a1908d1d57c0cda24f47ae32d"},
		{"Config3/BreakID0", decwi.Config3, goldenGenerate(3001, 0), "df495fc21223f2484404f252b45b337f923b640d75e68da5c57383f223ab4137"},
		{"Config3/BreakID2", decwi.Config3, goldenGenerate(3001, 2), "c0610926c0a1ecfbda730f493962eeb943b0f8c7d62a36ba7d9aa02aa2c3d25d"},
		{"Config4/BreakID0", decwi.Config4, goldenGenerate(3001, 0), "58584dd18d972adfd132419982e5bccc020ea412d48fa7bc7b3ec90b7f65d5d7"},
		{"Config4/BreakID2", decwi.Config4, goldenGenerate(3001, 2), "4495e94851e286aee91d314a0c9ee9fa44e4de4438f5d7f6b9ccb3f900bdf28e"},
		{"Ziggurat", decwi.ExtensionZiggurat, goldenGenerate(3001, 1), "f4a570a1a83818a6f14fb4cb230c7f5b5498cee097d0e61e28f28f40318c2e89"},
		{"Config2/StreamOffset4099", decwi.Config2, offset, "b9b09cb8dc833bef96a1546201e387713a81f9c9b37cfa7e155efc766250feb0"},
		{"Config4/IntraItemSubstreams4", decwi.Config4, lanes, "286e9fe414b56ea83485fda99dfd27953adc01cb39a6c56cccc214eda2a9d6a4"},
		{"Config3/SmallQuota1024x16", decwi.Config3, smallQuota, "97707450d519f9d4e5e089c6df8049a5ed5d7999e9afb616588c3f263e2cdd12"},
	}
}

func sha256Float32(v []float32) string {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func sha256Float64(v ...float64) string {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigests checks Generate output (GenerateParallel for the
// substream case, which only it offers) against the committed table.
// Cases without substreams also run through GenerateParallel, whose
// bytes the parallel-equivalence suite ties to Generate, so both entry
// points are pinned.
func TestGoldenDigests(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			var values []float32
			if tc.opt.IntraItemSubstreams > 1 {
				res, err := decwi.GenerateParallel(tc.config, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				values = res.Values
			} else {
				res, err := decwi.Generate(tc.config, tc.opt.GenerateOptions)
				if err != nil {
					t.Fatal(err)
				}
				values = res.Values
				par, err := decwi.GenerateParallel(tc.config, decwi.ParallelOptions{GenerateOptions: tc.opt.GenerateOptions, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if got := sha256Float32(par.Values); got != sha256Float32(values) {
					t.Fatalf("GenerateParallel digest %s differs from Generate", got)
				}
			}
			if got := sha256Float32(values); got != tc.want {
				t.Fatalf("sha256 of %d values = %s, golden %s", len(values), got, tc.want)
			}
		})
	}
}

// TestGoldenPortfolioRisk pins one CreditRisk+ job: its Monte-Carlo
// draws every sector variable through the block-batched gamma pipe, so
// the report's moments and tail measures move with any change to the
// value sequence.
func TestGoldenPortfolioRisk(t *testing.T) {
	const want = "49da50ed59a1f7605e8f7765756318b42fccef3d88c6e350b6f5be0e2e668185"
	p, err := decwi.NewUniformPortfolio(3, 1.39, 30, 0.02, 100)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := decwi.PortfolioRisk(p, decwi.Config2, 1000, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Float64(rep.ExpectedLoss, rep.LossStd, rep.VaR999, rep.ES999); got != want {
		t.Fatalf("risk report sha256 = %s, golden %s", got, want)
	}
}
