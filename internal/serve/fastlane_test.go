package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/decwi/decwi/internal/telemetry"
)

// rawRes builds an n-byte result for cache unit tests.
func rawRes(n int) *result {
	return newRawResult(bytes.Repeat([]byte{0xA5}, n))
}

// cached reports whether key holds a cached result, refreshing its
// recency as a hit does.
func cached(c *resultCache, key string) bool {
	e := c.lookup(key)
	return e != nil && e.fl == nil
}

// TestResultCacheEvictionByteBudget: inserts beyond the byte budget
// evict the globally least-recently-used entry, and an evicted key is a
// miss afterwards (hit-after-evict).
func TestResultCacheEvictionByteBudget(t *testing.T) {
	c := newResultCache(100, 100)
	for _, key := range []string{"a", "b"} {
		if ok, _, ev := c.put(key, "t1", rawRes(40), execMeta{}); !ok || len(ev) != 0 {
			t.Fatalf("put %s: inserted=%v evicted=%v", key, ok, ev)
		}
	}
	// Refresh "a" so "b" is the LRU victim when "c" arrives.
	if !cached(c, "a") {
		t.Fatal("get a before eviction: miss")
	}
	ok, _, ev := c.put("c", "t1", rawRes(40), execMeta{})
	if !ok || len(ev) != 1 || ev[0].size != 40 {
		t.Fatalf("put c over budget: inserted=%v evicted=%+v", ok, ev)
	}
	if cached(c, "b") {
		t.Fatal("evicted key b still hits")
	}
	for _, key := range []string{"a", "c"} {
		if !cached(c, key) {
			t.Fatalf("surviving key %s misses", key)
		}
	}
	if got := c.totalBytes(); got != 80 {
		t.Fatalf("occupancy %d bytes after eviction, want 80", got)
	}
}

// TestResultCachePerTenantAccounting: a tenant over its byte cap evicts
// its OWN oldest entries; other tenants' entries survive, and hits stay
// cross-tenant (the bytes are a pure function of the tuple).
func TestResultCachePerTenantAccounting(t *testing.T) {
	c := newResultCache(1000, 100)
	if ok, _, _ := c.put("other", "t2", rawRes(60), execMeta{}); !ok {
		t.Fatal("t2 seed insert failed")
	}
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		ok, _, ev := c.put(key, "t1", rawRes(40), execMeta{})
		if !ok {
			t.Fatalf("t1 put %s failed", key)
		}
		if i == 2 {
			// Third 40-byte entry crosses t1's 100-byte cap: k0 must go,
			// and it must be t1's entry, not t2's older one.
			if len(ev) != 1 || ev[0].tenant != "t1" {
				t.Fatalf("tenant-cap eviction took %+v, want one t1 entry", ev)
			}
		}
	}
	if cached(c, "k0") {
		t.Fatal("t1's oldest entry survived its tenant cap")
	}
	if !cached(c, "other") {
		t.Fatal("t2's entry evicted by t1's cap")
	}
	if got := c.tenantBytes("t1"); got != 80 {
		t.Fatalf("t1 attributed %d bytes, want 80", got)
	}
	if got := c.tenantBytes("t2"); got != 60 {
		t.Fatalf("t2 attributed %d bytes, want 60", got)
	}
}

// TestResultCacheOversizedAndRefresh: results bigger than the tenant
// cap are not cached at all, and re-inserting an existing key only
// refreshes recency (no double-count, nothing evicted).
func TestResultCacheOversizedAndRefresh(t *testing.T) {
	c := newResultCache(100, 50)
	if ok, _, _ := c.put("big", "t1", rawRes(51), execMeta{}); ok {
		t.Fatal("oversized result was cached")
	}
	if ok, _, _ := c.put("k", "t1", rawRes(30), execMeta{}); !ok {
		t.Fatal("first insert failed")
	}
	if ok, _, ev := c.put("k", "t1", rawRes(30), execMeta{}); ok || len(ev) != 0 {
		t.Fatalf("re-insert of existing key: inserted=%v evicted=%v", ok, ev)
	}
	if got := c.totalBytes(); got != 30 {
		t.Fatalf("occupancy %d after refresh, want 30", got)
	}
	if c.len() != 1 {
		t.Fatalf("entry count %d after refresh, want 1", c.len())
	}
}

// TestResultCacheAdmission: a result is stored only if no entry it
// would evict was requested more often. Lookups count requests; put's
// own existence check does not.
func TestResultCacheAdmission(t *testing.T) {
	// request counts key's lookups as Submit does, whatever they find.
	request := func(c *resultCache, key string, n int) {
		for i := 0; i < n; i++ {
			c.lookup(key)
		}
	}
	t.Run("one-off newcomer refused", func(t *testing.T) {
		c := newResultCache(100, 100)
		request(c, "hot", 1)
		if ok, _, _ := c.put("hot", "t1", rawRes(60), execMeta{}); !ok {
			t.Fatal("first put refused on an empty cache")
		}
		request(c, "hot", 1)
		request(c, "new", 1)
		ok, refused, ev := c.put("new", "t1", rawRes(60), execMeta{})
		if ok || !refused || len(ev) != 0 {
			t.Fatalf("one-off over a twice-requested entry: inserted=%v refused=%v evicted=%+v", ok, refused, ev)
		}
		if got := c.requests("hot"); got != 2 {
			t.Fatalf("hot counted %d requests, want 2 (put's existence check must not count)", got)
		}
		if c.totalBytes() != 60 || c.len() != 1 || !cached(c, "hot") {
			t.Fatalf("refused put moved the cache: %d bytes, %d entries", c.totalBytes(), c.len())
		}
	})
	t.Run("ties admit in LRU order", func(t *testing.T) {
		// All-distinct traffic, as serve-cold-mix sends: every key is
		// requested once, so every put admits and evicts the LRU tail.
		c := newResultCache(100, 100)
		for i := 0; i < 6; i++ {
			key := fmt.Sprintf("k%d", i)
			request(c, key, 1)
			ok, refused, ev := c.put(key, "t1", rawRes(40), execMeta{})
			if !ok || refused {
				t.Fatalf("put %s: inserted=%v refused=%v", key, ok, refused)
			}
			if wantEv := i >= 2; (len(ev) == 1) != wantEv || len(ev) > 1 {
				t.Fatalf("put %s evicted %+v", key, ev)
			}
			if i >= 2 && cached(c, fmt.Sprintf("k%d", i-2)) {
				t.Fatalf("put %s kept k%d, the LRU tail", key, i-2)
			}
		}
		// A newcomer requested as often as the hot entry displaces it.
		c = newResultCache(100, 100)
		request(c, "hot", 2)
		c.put("hot", "t1", rawRes(60), execMeta{})
		request(c, "peer", 2)
		if ok, refused, ev := c.put("peer", "t1", rawRes(60), execMeta{}); !ok || refused || len(ev) != 1 {
			t.Fatalf("equal-count newcomer: inserted=%v refused=%v evicted=%+v", ok, refused, ev)
		}
	})
	t.Run("halving lets a formerly hot entry go", func(t *testing.T) {
		c := newResultCache(100, 100)
		request(c, "hot", 2)
		c.put("hot", "t1", rawRes(60), execMeta{})
		// Distinct one-off keys fill the window; the halving then drops
		// them and leaves hot with one request.
		for n := c.window() - c.lookups; n > 0; n-- {
			request(c, fmt.Sprintf("f%d", n), 1)
		}
		if c.lookups != 0 || c.requests("hot") != 1 || len(c.freq) != 1 {
			t.Fatalf("after a window: %d lookups pending, hot=%d, %d keys counted; want 0, 1, 1", c.lookups, c.requests("hot"), len(c.freq))
		}
		request(c, "new", 1)
		ok, refused, ev := c.put("new", "t1", rawRes(60), execMeta{})
		if !ok || refused || len(ev) != 1 || cached(c, "hot") {
			t.Fatalf("newcomer after halving: inserted=%v refused=%v evicted=%+v", ok, refused, ev)
		}
	})
	t.Run("refused flight still answers its waiters", func(t *testing.T) {
		gate := make(chan struct{})
		s := New(Config{Executors: 1, CacheBytes: 10, CacheTenantBytes: 10, Telemetry: telemetry.New(0),
			runHook: func(ctx context.Context, spec *JobSpec) ([]byte, *execMeta, error) {
				if spec.Seed == 2 {
					select {
					case <-gate:
					case <-ctx.Done():
						return nil, nil, ctx.Err()
					}
				}
				return []byte(fmt.Sprintf("seed-%d", spec.Seed)), &execMeta{}, nil
			}})
		defer s.Drain(context.Background())
		var hotJob *Job
		for i := 0; i < 3; i++ { // one miss, two hits
			hotJob = submitDone(t, s, seeded(1))
		}
		leader, err := s.Submit(seeded(2))
		if err != nil {
			t.Fatal(err)
		}
		waitRunning(t, leader)
		follower, err := s.Submit(seeded(2))
		if err != nil {
			t.Fatal(err)
		}
		close(gate)
		for _, j := range []*Job{leader, follower} {
			if st := waitTerminal(t, j); st.State != StateDone {
				t.Fatalf("job %s ended %s (%s)", j.ID, st.State, st.Error)
			}
			if p, _ := j.Payload(); string(p) != "seed-2" {
				t.Fatalf("job %s got %q, want the run's bytes", j.ID, p)
			}
		}
		if got := s.cRefusals.Value(); got != 1 {
			t.Fatalf("serve.cache.admission-refusals = %d, want 1", got)
		}
		if got := s.cEvictions.Value(); got != 0 {
			t.Fatalf("serve.cache.evictions = %d after a refusal, want 0", got)
		}
		s.mu.Lock()
		hot, cold := s.cache.entries[hotJob.Spec.cacheKey()], s.cache.entries[leader.Spec.cacheKey()]
		s.mu.Unlock()
		if hot == nil || cold != nil {
			t.Fatalf("after the refusal: thrice-requested entry cached=%v, refused tuple indexed=%v", hot != nil, cold != nil)
		}
		checkIndex(t, s)
	})
}

// TestResultCacheZipfReplay replays serve-zipf-hot's traffic shape
// through the cache: rounds of 20 stratified Zipf(1.1) draws over 128
// one-MiB tuples, tuple i owned by tenant i%4, against 64 MiB with
// 16 MiB per tenant. Plain LRU keeps 85.3% hits here and a halving
// period of 10 lookups per entry 88.0%; admission must keep at least
// 88.5% once the first 200 rounds have warmed the cache.
func TestResultCacheZipfReplay(t *testing.T) {
	cdf := make([]float64, 128)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -1.1)
		cdf[k] = sum
	}
	res := rawRes(1 << 20)
	c := newResultCache(64<<20, 16<<20)
	rnd := rand.New(rand.NewPCG(1, 7))
	draws := make([]int, 20)
	hits, lookups := 0, 0
	for round := 0; round < 2000; round++ {
		for j := range draws {
			u := (float64(j) + rnd.Float64()) / float64(len(draws)) * sum
			draws[j] = min(sort.SearchFloat64s(cdf, u), len(cdf)-1)
		}
		rnd.Shuffle(len(draws), func(i, j int) { draws[i], draws[j] = draws[j], draws[i] })
		for _, d := range draws {
			key := fmt.Sprintf("k%d", d)
			hit := c.lookup(key) != nil
			if !hit {
				c.put(key, fmt.Sprintf("t%d", d%4), res, execMeta{})
			}
			if round >= 200 {
				lookups++
				if hit {
					hits++
				}
			}
		}
	}
	ratio := float64(hits) / float64(lookups)
	t.Logf("hit ratio %.4f over %d lookups", ratio, lookups)
	if ratio < 0.885 {
		t.Fatalf("hit ratio %.4f, want at least 0.885 (plain LRU keeps 0.853)", ratio)
	}
}

// TestSchedulerCacheHit: the second submission of a tuple is answered
// from the cache — born terminal, marked Cached, byte-identical, with
// no second engine run and the hit counted.
func TestSchedulerCacheHit(t *testing.T) {
	rec := telemetry.New(0)
	var runs atomic.Int64
	s := New(Config{Executors: 1, Telemetry: rec,
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			runs.Add(1)
			return []byte("deterministic-bytes"), &execMeta{}, nil
		}})
	defer s.Drain(context.Background())

	j1, err := s.Submit(seeded(42))
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitTerminal(t, j1)
	j2, err := s.Submit(seeded(42))
	if err != nil {
		t.Fatal(err)
	}
	st2 := j2.Status() // already terminal: Done() closed at creation
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("cache-hit job state %s cached=%v, want done/true", st2.State, st2.Cached)
	}
	if st1.Cached {
		t.Fatal("first submission reported cached")
	}
	p1, _ := j1.Payload()
	p2, _ := j2.Payload()
	if !bytes.Equal(p1, p2) || st1.SHA256 != st2.SHA256 {
		t.Fatalf("cached payload diverged: %s vs %s", st1.SHA256, st2.SHA256)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times for two identical submissions, want 1", got)
	}
	if got := s.cHits.Value(); got != 1 {
		t.Fatalf("serve.cache.hits = %d, want 1", got)
	}
	if s.Get(j2.ID) == nil {
		t.Fatal("cache-hit job not registered — status endpoint would 404 it")
	}
	// A different tuple misses.
	j3, err := s.Submit(seeded(43))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j3); st.Cached {
		t.Fatal("distinct tuple reported cached")
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("engine ran %d times for the distinct tuple, want 2 total", got)
	}
}

// TestSchedulerCacheDisabled: CacheBytes < 0 switches the lane off —
// identical sequential submissions re-run the engine.
func TestSchedulerCacheDisabled(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{Executors: 1, CacheBytes: -1,
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			runs.Add(1)
			return []byte("x"), &execMeta{}, nil
		}})
	defer s.Drain(context.Background())
	for i := 0; i < 2; i++ {
		j, err := s.Submit(seeded(42))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st.Cached {
			t.Fatal("cached=true with the cache disabled")
		}
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("engine ran %d times with the cache disabled, want 2", got)
	}
}

// TestSchedulerSingleflightCoalesce: N concurrent submissions of one
// tuple run the engine once; followers are marked Coalesced and all N
// receive identical results.
func TestSchedulerSingleflightCoalesce(t *testing.T) {
	rec := telemetry.New(0)
	var runs atomic.Int64
	ch := make(chan struct{})
	var once sync.Once
	s := New(Config{Executors: 1, Telemetry: rec,
		runHook: func(ctx context.Context, _ *JobSpec) ([]byte, *execMeta, error) {
			runs.Add(1)
			select {
			case <-ch:
				return []byte("shared"), &execMeta{}, nil
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}})
	release := func() { once.Do(func() { close(ch) }) }
	defer func() {
		release()
		s.Drain(context.Background())
	}()

	leader, err := s.Submit(seeded(7))
	if err != nil {
		t.Fatal(err)
	}
	for leader.Status().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	var followers []*Job
	for i := 0; i < 2; i++ {
		f, err := s.Submit(seeded(7))
		if err != nil {
			t.Fatal(err)
		}
		if st := f.Status(); !st.Coalesced {
			t.Fatalf("follower %d not coalesced: %+v", i, st)
		}
		followers = append(followers, f)
	}
	release()
	want := waitTerminal(t, leader)
	if want.State != StateDone {
		t.Fatalf("leader ended %s (%s)", want.State, want.Error)
	}
	for i, f := range followers {
		st := waitTerminal(t, f)
		if st.State != StateDone || st.SHA256 != want.SHA256 {
			t.Fatalf("follower %d ended %s sha %s, want done/%s", i, st.State, st.SHA256, want.SHA256)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times for 3 coalesced submissions, want 1", got)
	}
	if got := s.cCoalesced.Value(); got != 2 {
		t.Fatalf("serve.dedup.coalesced = %d, want 2", got)
	}
}

// TestSchedulerSingleflightWaiterCancel: cancelling one waiter — the
// follower OR the leader — must not abort the shared execution; the
// remaining waiter still receives its result.
func TestSchedulerSingleflightWaiterCancel(t *testing.T) {
	for _, cancelLeader := range []bool{false, true} {
		name := "cancel-follower"
		if cancelLeader {
			name = "cancel-leader"
		}
		t.Run(name, func(t *testing.T) {
			ch := make(chan struct{})
			var once sync.Once
			s := New(Config{Executors: 1,
				runHook: func(ctx context.Context, _ *JobSpec) ([]byte, *execMeta, error) {
					select {
					case <-ch:
						return []byte("survives"), &execMeta{}, nil
					case <-ctx.Done():
						return nil, nil, ctx.Err()
					}
				}})
			release := func() { once.Do(func() { close(ch) }) }
			defer func() {
				release()
				s.Drain(context.Background())
			}()

			leader, err := s.Submit(seeded(7))
			if err != nil {
				t.Fatal(err)
			}
			for leader.Status().State != StateRunning {
				time.Sleep(time.Millisecond)
			}
			follower, err := s.Submit(seeded(7))
			if err != nil {
				t.Fatal(err)
			}
			victim, survivor := follower, leader
			if cancelLeader {
				victim, survivor = leader, follower
			}
			if !victim.Cancel() {
				t.Fatal("waiter cancel reported not-cancellable")
			}
			if st := victim.Status(); st.State != StateCancelled {
				t.Fatalf("cancelled waiter state %s", st.State)
			}
			release()
			// The shared run must have survived: had the cancel aborted the
			// flight's context, the hook would have returned ctx.Err() and
			// the survivor would end cancelled/failed instead of done.
			st := waitTerminal(t, survivor)
			if st.State != StateDone || string(mustPayload(t, survivor)) != "survives" {
				t.Fatalf("surviving waiter ended %s (%s), want done", st.State, st.Error)
			}
		})
	}
}

// TestSchedulerSingleflightLastWaiterCancelAborts: when the LAST waiter
// detaches, nobody wants the result — the shared execution's context is
// cancelled instead of burning engine time.
func TestSchedulerSingleflightLastWaiterCancelAborts(t *testing.T) {
	aborted := make(chan struct{})
	s := New(Config{Executors: 1,
		runHook: func(ctx context.Context, _ *JobSpec) ([]byte, *execMeta, error) {
			<-ctx.Done()
			close(aborted)
			return nil, nil, ctx.Err()
		}})
	defer s.Drain(context.Background())

	j, err := s.Submit(seeded(7))
	if err != nil {
		t.Fatal(err)
	}
	for j.Status().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	if !j.Cancel() {
		t.Fatal("cancel reported not-cancellable")
	}
	select {
	case <-aborted:
	case <-time.After(10 * time.Second):
		t.Fatal("shared run not aborted after its last waiter cancelled")
	}
}

// checkIndex asserts the replay-tuple index's two invariants once the
// scheduler is idle: no flight entry is left behind, and the byte count
// equals the sum of the result sizes on the LRU.
func checkIndex(t *testing.T, s *Scheduler) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cache
	for key, e := range c.entries {
		if e.fl != nil {
			t.Errorf("flight entry left in the index for %s", key)
		}
	}
	var sum int64
	for elem := c.lru.Front(); elem != nil; elem = elem.Next() {
		sum += elem.Value.(*cacheEntry).size
	}
	if sum != c.bytes {
		t.Errorf("index charges %d bytes, LRU sizes sum to %d", c.bytes, sum)
	}
}

// countingHook parks every run until release and counts runs per seed.
type countingHook struct {
	mu   sync.Mutex
	runs map[uint64]int
	ch   chan struct{}
	once sync.Once
}

func newCountingHook() *countingHook {
	return &countingHook{runs: map[uint64]int{}, ch: make(chan struct{})}
}

func (h *countingHook) run(ctx context.Context, spec *JobSpec) ([]byte, *execMeta, error) {
	h.mu.Lock()
	h.runs[spec.Seed]++
	h.mu.Unlock()
	select {
	case <-h.ch:
		return []byte(fmt.Sprintf("seed-%d", spec.Seed)), &execMeta{}, nil
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

func (h *countingHook) release() { h.once.Do(func() { close(h.ch) }) }

func (h *countingHook) count(seed uint64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.runs[seed]
}

// waitRunning polls until the job's flight has started.
func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for j.Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", j.ID)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIndexAbandonedFlight: a queued flight whose only waiter cancels
// leaves the index; an identical submission then leads a fresh flight,
// and the abandoned one is skipped when an executor claims it — the
// engine runs the tuple once.
func TestIndexAbandonedFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newCountingHook()
	s := New(Config{Executors: 1, QueueDepth: 4, runHook: h.run})

	busy, err := s.Submit(seeded(1)) // holds the one executor
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, busy)
	abandoned, err := s.Submit(seeded(7))
	if err != nil {
		t.Fatal(err)
	}
	if !abandoned.Cancel() {
		t.Fatal("cancel of the queued leader reported not-cancellable")
	}
	fresh, err := s.Submit(seeded(7))
	if err != nil {
		t.Fatal(err)
	}
	if st := fresh.Status(); st.Coalesced {
		t.Fatal("submission coalesced onto an abandoned flight")
	}
	h.release()
	if st := waitTerminal(t, fresh); st.State != StateDone {
		t.Fatalf("fresh leader ended %s (%s), want done", st.State, st.Error)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := h.count(7); got != 1 {
		t.Fatalf("engine ran the tuple %d times, want 1", got)
	}
	if st := abandoned.Status(); st.State != StateCancelled {
		t.Fatalf("abandoned leader ended %s, want cancelled", st.State)
	}
	checkIndex(t, s)
	checkNoLeak(t, before)
}

// TestIndexCoalescedPanic: a panic in a coalesced flight fails every
// waiter with "panicked" and caches nothing; the next identical
// submission runs fresh and succeeds.
func TestIndexCoalescedPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newCountingHook()
	var panicked atomic.Bool
	s := New(Config{Executors: 1, runHook: func(ctx context.Context, spec *JobSpec) ([]byte, *execMeta, error) {
		out, meta, err := h.run(ctx, spec)
		if panicked.CompareAndSwap(false, true) {
			panic("synthetic panic in a shared run")
		}
		return out, meta, err
	}})

	leader, err := s.Submit(seeded(7))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, leader)
	waiters := []*Job{leader}
	for i := 0; i < 2; i++ {
		j, err := s.Submit(seeded(7))
		if err != nil {
			t.Fatal(err)
		}
		if !j.Status().Coalesced {
			t.Fatalf("follower %d not coalesced", i)
		}
		waiters = append(waiters, j)
	}
	h.release()
	for i, j := range waiters {
		st := waitTerminal(t, j)
		if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
			t.Fatalf("waiter %d ended %s (%q), want failed/panicked", i, st.State, st.Error)
		}
	}
	s.mu.Lock()
	left := s.cache.lookup(leader.Spec.cacheKey())
	s.mu.Unlock()
	if left != nil {
		t.Fatalf("panicked flight left an index entry: %+v", left)
	}
	retry, err := s.Submit(seeded(7))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, retry)
	if st.State != StateDone || st.Cached || st.Coalesced {
		t.Fatalf("retry ended %s cached=%v coalesced=%v, want a fresh done run", st.State, st.Cached, st.Coalesced)
	}
	if got := h.count(7); got != 2 {
		t.Fatalf("engine ran the tuple %d times, want 2 (panic, retry)", got)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, s)
	checkNoLeak(t, before)
}

// TestIndexCompletionRace: concurrent identical submissions race a
// completing run. Every one of them coalesces or hits the cache, so the
// engine runs once and every job ends done with the same digest.
func TestIndexCompletionRace(t *testing.T) {
	before := runtime.NumGoroutine()
	var runs atomic.Int64
	s := New(Config{Executors: 2, runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
		runs.Add(1)
		time.Sleep(2 * time.Millisecond)
		return []byte("raced"), &execMeta{}, nil
	}})

	const submitters, perSubmitter = 8, 25
	jobs := make(chan *Job, submitters*perSubmitter)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perSubmitter; i++ {
				j, err := s.Submit(seeded(7))
				if err != nil {
					t.Error(err)
					return
				}
				jobs <- j
				time.Sleep(time.Duration(i%4) * 200 * time.Microsecond)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(jobs)
	sha := ""
	for j := range jobs {
		st := waitTerminal(t, j)
		if st.State != StateDone {
			t.Fatalf("job %s ended %s (%s), want done", j.ID, st.State, st.Error)
		}
		if sha == "" {
			sha = st.SHA256
		}
		if st.SHA256 != sha {
			t.Fatalf("job %s digest %s, want %s", j.ID, st.SHA256, sha)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times for one tuple, want 1", got)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, s)
	checkNoLeak(t, before)
}

// TestIndexDrainCoalescedFlight: a drain that starts while a coalesced
// flight is running waits for it, and every waiter ends done.
func TestIndexDrainCoalescedFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newCountingHook()
	s := New(Config{Executors: 1, runHook: h.run})

	leader, err := s.Submit(seeded(7))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, leader)
	waiters := []*Job{leader}
	for i := 0; i < 2; i++ {
		j, err := s.Submit(seeded(7))
		if err != nil {
			t.Fatal(err)
		}
		waiters = append(waiters, j)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	h.release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, j := range waiters {
		if st := waitTerminal(t, j); st.State != StateDone {
			t.Fatalf("waiter %d ended %s (%s), want done", i, st.State, st.Error)
		}
	}
	if got := h.count(7); got != 1 {
		t.Fatalf("engine ran the tuple %d times, want 1", got)
	}
	checkIndex(t, s)
	checkNoLeak(t, before)
}

// TestResultDigestFixedAtCompletion: a generate result is encoded to
// its wire bytes and digested once, when it is built. The bytes are the
// little-endian float32 encoding of the device-layout buffer, the
// digest is theirs, and the result keeps no reference to the floats —
// writing to the engine's buffer afterwards changes neither.
func TestResultDigestFixedAtCompletion(t *testing.T) {
	vals := make([]float32, 20000)
	for i := range vals {
		vals[i] = float32(i) * 0.25
	}
	r := newValuesResult(vals)
	if r.sha == "" {
		t.Fatal("digest not fixed at completion")
	}
	if r.size() != 4*len(vals) || len(r.raw) != 4*len(vals) {
		t.Fatalf("size %d, raw %d bytes, want %d", r.size(), len(r.raw), 4*len(vals))
	}
	for i, v := range vals {
		if got := binary.LittleEndian.Uint32(r.raw[4*i:]); got != math.Float32bits(v) {
			t.Fatalf("wire word %d = %#x, want %#x", i, got, math.Float32bits(v))
		}
	}
	if got := digest(r.raw); got != r.sha {
		t.Fatalf("wire digest %s != completion digest %s", got, r.sha)
	}
	want := bytes.Clone(r.raw)
	sha := r.sha
	for i := range vals {
		vals[i] = -1
	}
	if !bytes.Equal(r.raw, want) || r.sha != sha {
		t.Fatal("result changed when the engine buffer was overwritten after completion")
	}
}

// TestPayloadSharesStoredBytes: Payload hands out the one stored wire
// slice, not a copy — repeated calls, and a cache hit of the same
// tuple, return the same backing array.
func TestPayloadSharesStoredBytes(t *testing.T) {
	s := New(Config{Executors: 1,
		runHook: func(context.Context, *JobSpec) ([]byte, *execMeta, error) {
			return []byte("deterministic-bytes"), &execMeta{}, nil
		}})
	defer s.Drain(context.Background())
	j1, err := s.Submit(seeded(7))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	j2, err := s.Submit(seeded(7))
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Status().Cached {
		t.Fatal("second submission of the tuple was not a cache hit")
	}
	p1 := mustPayload(t, j1)
	for name, p := range map[string][]byte{"repeat": mustPayload(t, j1), "cache hit": mustPayload(t, j2)} {
		if len(p) == 0 || &p[0] != &p1[0] || len(p) != len(p1) {
			t.Fatalf("%s payload is not the stored slice", name)
		}
	}
}

// mustPayload unwraps a terminal job's payload bytes.
func mustPayload(t *testing.T, j *Job) []byte {
	t.Helper()
	p, state := j.Payload()
	if state != StateDone {
		t.Fatalf("payload requested in state %s", state)
	}
	return p
}
