package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
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

// FuzzWaitParam drives arbitrary ?wait= values at GET /v1/jobs/{id} for
// a terminal job. The handler must never panic, and must answer 200
// (the wait is absent, or parses and the job is already done) or 400
// (it does not parse, or is negative), always with a JSON body. The
// seed corpus is testdata/fuzz/FuzzWaitParam.
func FuzzWaitParam(f *testing.F) {
	s := New(Config{Executors: 1,
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			return []byte("x"), &execMeta{}, nil
		}})
	f.Cleanup(func() { s.Drain(context.Background()) })
	j, err := s.Submit(seeded(1))
	if err != nil {
		f.Fatal(err)
	}
	<-j.Done()
	h := NewServer(s).Handler()
	f.Fuzz(func(t *testing.T, wait string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID+"?wait="+url.QueryEscape(wait), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("wait=%q: status %d, want 200 or 400", wait, rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("wait=%q: status %d with a non-JSON body %q", wait, rec.Code, rec.Body.Bytes())
		}
	})
}
