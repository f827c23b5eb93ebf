package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec drives arbitrary submission bodies through the same
// strict decode submitHandler performs and then through Validate, the
// single gate between the network and the engine. Nothing may panic.
// For an accepted spec, the cache key must be stable, Validate must be
// idempotent, and the scheduling and accounting fields (Workers,
// Shards, ChunkWorkItems, Tenant, TimeoutMS) must not move the key.
// The seed corpus is testdata/fuzz/FuzzJobSpec.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, risk bool) {
		kind := KindGenerate
		if risk {
			kind = KindRisk
		}
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if spec.Kind != "" && spec.Kind != kind {
			return
		}
		spec.Kind = kind
		if err := spec.Validate(Limits{}); err != nil {
			return
		}
		key := spec.cacheKey()
		if again := spec.cacheKey(); again != key {
			t.Fatalf("cacheKey unstable: %s then %s", key, again)
		}
		revalidated := spec
		if err := revalidated.Validate(Limits{}); err != nil {
			t.Fatalf("accepted spec %+v rejected on revalidation: %v", spec, err)
		}
		if got := revalidated.cacheKey(); got != key {
			t.Fatalf("revalidation moved the cache key: %s -> %s", key, got)
		}
		scheduled := spec
		scheduled.Workers++
		scheduled.Shards++
		scheduled.ChunkWorkItems++
		scheduled.Tenant += "-x"
		scheduled.TimeoutMS++
		if got := scheduled.cacheKey(); got != key {
			t.Fatalf("scheduling/accounting fields moved the cache key: %s -> %s", key, got)
		}
	})
}
