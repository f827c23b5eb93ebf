package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzJobSpec drives arbitrary submission bodies through the same
// strict decode submitHandler performs and then through Validate, the
// single gate between the network and the engine. Nothing may panic.
// For an accepted spec, the cache key must be stable, Validate must be
// idempotent, and the scheduling and accounting fields (Workers,
// ChunkWorkItems, Tenant, TimeoutMS) must not move the key.
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

// FuzzResultCache drives random sequences of lookup, lead, release and
// put over 3 tenants with mixed result sizes (one too big to cache),
// plus bursts of one-off lookups that reach the admission table's
// halving. After every step the index must hold its invariants: bytes
// equals the sum of the sizes on the LRU, every tenant is within
// tenantCap and the total within budget, a refused put changed no
// entry, every result entry is on the LRU and no flight entry is. The
// seed corpus is testdata/fuzz/FuzzResultCache.
func FuzzResultCache(f *testing.F) {
	sizes := [4]int{5, 17, 33, 51}
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := newResultCache(100, 50)
		flights := map[string]*flight{}
		junk := 0
		for step := 0; len(ops) >= 4 && step < 128; step, ops = step+1, ops[4:] {
			key := fmt.Sprintf("k%d", ops[1]%8)
			tenant := fmt.Sprintf("t%d", ops[2]%3)
			switch ops[0] % 5 {
			case 0:
				c.lookup(key)
			case 1: // a miss leads a flight
				if c.lookup(key) == nil {
					fl := &flight{key: key}
					c.lead(fl)
					flights[key] = fl
				}
			case 2: // the flight's last waiter detaches
				if fl := flights[key]; fl != nil {
					if !c.release(fl) {
						t.Fatalf("step %d: release of %s's live flight found no entry", step, key)
					}
					delete(flights, key)
				}
			case 3: // completion: the flight (if any) swaps for its result
				if fl := flights[key]; fl != nil {
					c.release(fl)
					delete(flights, key)
				}
				before := snapshotCache(c)
				inserted, refused, evicted := c.put(key, tenant, rawRes(sizes[ops[3]%4]), execMeta{})
				if refused {
					if inserted || len(evicted) > 0 {
						t.Fatalf("step %d: refused put of %s inserted=%v evicted=%+v", step, key, inserted, evicted)
					}
					if after := snapshotCache(c); after != before {
						t.Fatalf("step %d: refused put of %s changed the cache:\n%s\n%s", step, key, before, after)
					}
				}
				if e := c.entries[key]; inserted && (e == nil || e.fl != nil || e.tenant != tenant) {
					t.Fatalf("step %d: put of %s reported inserted, entry %+v", step, key, e)
				}
			case 4: // a burst of one-off tuples
				for i := 0; i < 256; i++ {
					junk++
					c.lookup(fmt.Sprintf("j%d", junk))
				}
			}
			checkCacheInvariants(t, step, c)
		}
	})
}

// snapshotCache renders the LRU order with every entry's key, tenant
// and size, plus the occupancy totals, for before/after comparison.
func snapshotCache(c *resultCache) string {
	var b strings.Builder
	for elem := c.lru.Front(); elem != nil; elem = elem.Next() {
		e := elem.Value.(*cacheEntry)
		fmt.Fprintf(&b, "%s/%s/%d ", e.key, e.tenant, e.size)
	}
	fmt.Fprintf(&b, "| %d bytes, %d keys, %v", c.bytes, len(c.entries), c.perTenant)
	return b.String()
}

// checkCacheInvariants fails t unless c's accounting matches its LRU,
// every cap holds, and the LRU holds exactly the result entries.
func checkCacheInvariants(t *testing.T, step int, c *resultCache) {
	t.Helper()
	var sum int64
	perTenant := map[string]int64{}
	for elem := c.lru.Front(); elem != nil; elem = elem.Next() {
		e := elem.Value.(*cacheEntry)
		if c.entries[e.key] != e || e.elem != elem {
			t.Fatalf("step %d: LRU element %s is not its index entry", step, e.key)
		}
		sum += e.size
		perTenant[e.tenant] += e.size
	}
	if sum != c.bytes || c.bytes > c.budget {
		t.Fatalf("step %d: bytes %d, LRU sizes sum to %d, budget %d", step, c.bytes, sum, c.budget)
	}
	for tenant, n := range perTenant {
		if c.perTenant[tenant] != n || n > c.tenantCap {
			t.Fatalf("step %d: tenant %s charged %d, LRU holds %d, cap %d", step, tenant, c.perTenant[tenant], n, c.tenantCap)
		}
	}
	results := 0
	for key, e := range c.entries {
		if (e.fl != nil) == (e.elem != nil) {
			t.Fatalf("step %d: entry %s has flight=%v and LRU element=%v", step, key, e.fl != nil, e.elem != nil)
		}
		if e.fl == nil {
			results++
		}
	}
	if results != c.lru.Len() || len(perTenant) != len(c.perTenant) {
		t.Fatalf("step %d: %d result entries, %d on the LRU; %d tenants charged, %d hold entries",
			step, results, c.lru.Len(), len(c.perTenant), len(perTenant))
	}
}
