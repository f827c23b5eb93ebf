package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/serve"
)

// probeDigests are the SHA-256 digests of every workload's two probe
// payloads, recorded when the benchmark was introduced. They pin the
// bytes against history, where the comparison with in-process
// decwi.Generate only pins two live paths against each other.
var probeDigests = map[string][2]string{
	"lib-mb-bulk": {
		"fc9e6383ba6334aedcc362519840cbecf7260f0ab1588355c300fd083a40231c",
		"0067c9b81ccd0d7e39e9758a8ad872e2fe2e988136f01a29cf8049da3f83b78b",
	},
	"lib-icdf-sectors": {
		"e148a324987ceb38174099fae0670d81ecaac2bb1834959a75316e1b4862fe13",
		"51595651604d64910db96841041c193ae9b441863cfaa8ba5d6875cc201615a2",
	},
	"serve-cold-mix": {
		"a1269d10f5f337c4870ccbe07ced4ad1f331304406fe8749d6b29909989a7ff0",
		"0dfa5658d06a8bed8d29f15ad7f2338c37ccc027c93b6d2623f96b741cde6e77",
	},
	"serve-zipf-hot": {
		"519bc02be1f36bb4df01dcc1ae432c7eb147a9054ba24b25d53d2a41b2935db0",
		"46657ea118539bffb6f45569ae420b0f99b217eba3a8bca4117a4a8f8e984e26",
	},
}

// ksMinP is the KS p-value a lib probe's sector must exceed.
const ksMinP = 1e-3

// riskELTolerance bounds the risk probe's simulated expected loss
// against the analytic one, as decwi_test.go does.
const riskELTolerance = 0.08

// referencePayload computes a spec's payload in process, on the
// sequential library path: decwi.Generate for generate jobs, and
// decwi.PortfolioRisk on the portfolio decwi-served builds for risk jobs.
func referencePayload(spec serve.JobSpec) ([]byte, error) {
	if spec.Kind == serve.KindRisk {
		rep, err := riskReport(spec)
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	}
	res, err := decwi.Generate(decwi.ConfigID(spec.Config), decwi.GenerateOptions{
		Scenarios: spec.Scenarios, Sectors: spec.Sectors,
		Variance: spec.Variance, Variances: spec.Variances, Seed: spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	return encodeLE(res.Values), nil
}

// riskReport runs a risk spec with decwi-served's portfolio defaults.
func riskReport(spec serve.JobSpec) (*decwi.RiskReport, error) {
	if err := spec.Validate(serve.Limits{}); err != nil {
		return nil, err
	}
	v := spec.Variance
	if v == 0 {
		v = 1.39
	}
	p, err := decwi.NewUniformPortfolio(spec.Sectors, v, spec.Obligors, spec.PD, spec.Exposure)
	if err != nil {
		return nil, err
	}
	return decwi.PortfolioRisk(p, decwi.ConfigID(spec.Config), int(spec.Scenarios), spec.BandUnit, spec.Seed)
}

// encodeLE is decwi-served's wire format: little-endian float32.
func encodeLE(values []float32) []byte {
	out := make([]byte, 4*len(values))
	for i, v := range values {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkProbe compares a probe payload with its in-process reference and
// its committed digest.
func checkProbe(r *result, i int, spec serve.JobSpec, got []byte) {
	want, err := referencePayload(spec)
	if err != nil {
		r.fail("probe %d: reference: %v", i+1, err)
		return
	}
	if !bytes.Equal(got, want) {
		r.fail("probe %d: %d payload bytes differ from in-process decwi.Generate (%d bytes)", i+1, len(got), len(want))
	}
	if d := sha(got); d != probeDigests[r.Workload][i] {
		r.fail("probe %d: sha256 %s, committed %q", i+1, d, probeDigests[r.Workload][i])
	}
	if spec.Kind == serve.KindRisk {
		var rep decwi.RiskReport
		if err := json.Unmarshal(got, &rep); err != nil {
			r.fail("probe %d: risk report: %v", i+1, err)
		} else if math.Abs(rep.ExpectedLoss-rep.AnalyticEL) > riskELTolerance*rep.AnalyticEL {
			r.fail("probe %d: expected loss %g is not within %g of analytic %g", i+1, rep.ExpectedLoss, riskELTolerance, rep.AnalyticEL)
		}
	}
}

// checkValues is the structural check every generated payload passes:
// the expected count of finite, non-negative gamma variates.
func checkValues(values []float32, want int64) error {
	if int64(len(values)) != want {
		return fmt.Errorf("%d values, want %d", len(values), want)
	}
	for i, v := range values {
		if !(v >= 0) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("value %d is %g", i, v)
		}
	}
	return nil
}

// sameBits reports whether two value slices are bitwise identical.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
