package serve

import (
	"container/list"
	"context"
	"hash/maphash"
	"slices"
	"time"

	ftrace "github.com/decwi/decwi/internal/telemetry/flight"
)

// This file is the replay-tuple index: one map, keyed by the canonical
// digest of the replay tuple (JobSpec.cacheKey), that answers the
// scheduler's one admission question — is this tuple cached, in flight,
// or new? An entry holds either the tuple's live flight or its cached
// result. The determinism guarantee the whole repo is built on — every
// payload is a pure function of that tuple — is what makes both uses
// safe: a cached result is exactly the bytes a fresh engine run would
// produce, and N concurrent submissions of one tuple would produce N
// bitwise-identical payloads, so one shared run fanned out to all N is
// indistinguishable and N−1 runs cheaper.
//
// Result entries form a content-addressed, byte-budgeted LRU. Flight
// entries are not on the LRU and are charged no bytes. Accounting is
// per tenant as well as global: each result is attributed to the tenant
// whose job produced it, one tenant's results may not exceed tenantCap
// bytes (its own oldest entries are evicted first), and the whole cache
// may not exceed budget bytes (globally oldest evicted first). Hits are
// deliberately cross-tenant — the bytes are a pure function of the
// tuple, so any tenant could compute them — only the storage
// attribution is scoped.
//
// Admission is frequency-gated (TinyLFU: Einziger, Friedman & Manes,
// ACM TOS 2017). Every Submit lookup counts its key, hit, coalesce or
// miss alike, in a table of 4-bit counts halved every window()
// lookups. A completed result that would have to evict an entry
// requested more often than itself is refused: it is returned to its
// waiters but not indexed, so a one-off miss cannot push out a hot
// tuple. Ties admit, so all-distinct traffic evicts exactly as plain
// LRU does.
//
// The index has no lock of its own: every method runs under
// Scheduler.mu, and so does every read or write of a flight's mutable
// fields. Completion swaps a flight for its result (or deletes it) and
// seals the flight's waiter set in one critical section, so a racing
// submission either attaches before the seal or finds the result.

// cacheEviction reports one evicted result entry so the scheduler can
// settle the eviction counter.
type cacheEviction struct {
	tenant string
	size   int64
}

// cacheEntry is one replay tuple's slot: its live flight (fl non-nil,
// elem nil, size 0) or its cached result plus the execution metadata
// its status responses echo.
type cacheEntry struct {
	key    string
	fl     *flight
	tenant string
	res    *result
	meta   execMeta
	size   int64
	elem   *list.Element
}

// resultCache is the index. A budget of 0 disables result caching; the
// flight entries work the same either way.
type resultCache struct {
	budget    int64 // global byte ceiling
	tenantCap int64 // per-tenant byte ceiling
	bytes     int64
	lru       *list.List // result entries only; front = most recently used
	entries   map[string]*cacheEntry
	perTenant map[string]int64

	// freq counts lookups per key hash, capped at maxFreq; lookups
	// counts those since the last halving. Halving drops every key seen
	// once, so the table never holds more keys than two windows of
	// lookups. Keys are 64-bit hashes rather than the key strings, so
	// counting keeps no key alive; a collision only merges two counts,
	// which can change what is cached but never what is served.
	freq    map[uint64]uint8
	lookups int
	seed    maphash.Seed
}

// maxFreq caps a key's lookup count: a 4-bit counter, as in TinyLFU.
const maxFreq = 15

// window is the halving period in lookups: 30 per resident entry, and
// at least 1,920, so a cache of few entries still sees enough requests
// between halvings to tell hot tuples from cold ones. A shorter window
// leaves the tuples near the admission boundary with counts of one or
// two; a longer one lets them reach maxFreq, where they tie with the
// hot ones. Replaying Zipf(1.1) traffic, 30 kept the most hits of the
// periods tried (EXPERIMENTS.md, "Frequency-gated cache admission";
// TestResultCacheZipfReplay).
func (c *resultCache) window() int { return 30 * max(c.lru.Len(), 64) }

func newResultCache(budget, tenantCap int64) *resultCache {
	if budget < 0 {
		budget = 0
	}
	if tenantCap <= 0 || tenantCap > budget {
		tenantCap = budget
	}
	return &resultCache{
		budget:    budget,
		tenantCap: tenantCap,
		lru:       list.New(),
		entries:   map[string]*cacheEntry{},
		perTenant: map[string]int64{},
		freq:      map[uint64]uint8{},
		seed:      maphash.MakeSeed(),
	}
}

// enabled reports whether results are cached at all.
func (c *resultCache) enabled() bool { return c.budget > 0 }

// lookup returns key's entry — a live flight or a cached result — or
// nil. A result entry's recency is refreshed, and the key's request
// count goes up whatever the outcome: admission weighs requests, not
// stored results.
func (c *resultCache) lookup(key string) *cacheEntry {
	if c.enabled() {
		c.count(key)
	}
	return c.touch(key)
}

// touch returns key's entry and refreshes a result entry's recency
// without counting a request.
func (c *resultCache) touch(key string) *cacheEntry {
	e := c.entries[key]
	if e != nil && e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	return e
}

// requests is key's lookup count as the halvings have left it.
func (c *resultCache) requests(key string) uint8 {
	return c.freq[maphash.String(c.seed, key)]
}

// count records one request for key and halves every count once a
// window of lookups has passed, so old popularity fades.
func (c *resultCache) count(key string) {
	h := maphash.String(c.seed, key)
	if n := c.freq[h]; n < maxFreq {
		c.freq[h] = n + 1
	}
	if c.lookups++; c.lookups < c.window() {
		return
	}
	c.lookups = 0
	for k, n := range c.freq {
		if n >>= 1; n == 0 {
			delete(c.freq, k)
		} else {
			c.freq[k] = n
		}
	}
}

// lead indexes f as its tuple's live flight. The caller has checked
// that the key has no entry.
func (c *resultCache) lead(f *flight) {
	c.entries[f.key] = &cacheEntry{key: f.key, fl: f}
}

// release deletes f's flight entry and reports whether f still held it
// (a flight whose last waiter detached has already left the index).
func (c *resultCache) release(f *flight) bool {
	if e := c.entries[f.key]; e != nil && e.fl == f {
		delete(c.entries, f.key)
		return true
	}
	return false
}

// put inserts a completed result under key, attributed to tenant. It
// reports whether the entry was stored, whether admission refused it,
// and which entries were evicted to make room. Oversized results
// (bigger than the per-tenant cap) are not cached at all — one huge job
// must not flush everyone else. Re-inserting an existing key only
// refreshes recency: determinism guarantees the stored bytes already
// equal the new ones. A completing flight releases its own entry first.
//
// The victims are the owning tenant's oldest entries until it fits
// under its cap, then the global oldest until the cache fits under the
// budget. If any victim was requested more often than key, nothing is
// evicted and the result is refused.
func (c *resultCache) put(key, tenant string, res *result, meta execMeta) (inserted, refused bool, evicted []cacheEviction) {
	size := int64(res.size())
	if size == 0 || size > c.tenantCap || size > c.budget || c.touch(key) != nil {
		return false, false, nil
	}
	victims := c.victims(tenant, size)
	newcomer := c.requests(key)
	for _, e := range victims {
		if c.requests(e.key) > newcomer {
			return false, true, nil
		}
	}
	for _, e := range victims {
		c.evict(e)
		evicted = append(evicted, cacheEviction{tenant: e.tenant, size: e.size})
	}
	e := &cacheEntry{key: key, tenant: tenant, res: res, meta: meta, size: size}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += size
	c.perTenant[tenant] += size
	return true, false, evicted
}

// victims lists, in eviction order, the entries a size-byte result of
// tenant would evict: the tenant's own LRU tail until it fits under
// tenantCap, then the global tail until the cache fits under budget.
// The caller has checked size ≤ tenantCap ≤ budget, so the walks always
// succeed.
func (c *resultCache) victims(tenant string, size int64) []*cacheEntry {
	var out []*cacheEntry
	own, total := c.perTenant[tenant]+size, c.bytes+size
	for elem := c.lru.Back(); elem != nil && own > c.tenantCap; elem = elem.Prev() {
		if e := elem.Value.(*cacheEntry); e.tenant == tenant {
			out = append(out, e)
			own -= e.size
			total -= e.size
		}
	}
	for elem := c.lru.Back(); elem != nil && total > c.budget; elem = elem.Prev() {
		e := elem.Value.(*cacheEntry)
		if !slices.Contains(out, e) {
			out = append(out, e)
			total -= e.size
		}
	}
	return out
}

// evict removes result entry e from the index and its accounting.
func (c *resultCache) evict(e *cacheEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.bytes -= e.size
	if c.perTenant[e.tenant] -= e.size; c.perTenant[e.tenant] <= 0 {
		delete(c.perTenant, e.tenant)
	}
}

// totalBytes is the current global occupancy.
func (c *resultCache) totalBytes() int64 { return c.bytes }

// len is the number of cached results (flight entries not counted).
func (c *resultCache) len() int { return c.lru.Len() }

// flight is one shared engine execution of a replay tuple, fanned out
// to every job that named it. The first submission of a tuple leads the
// flight and takes the queue; later submissions attach as waiters while
// the flight's entry is in the index. Execution belongs to the flight,
// not to any one job: cancelling a waiter — the leader included — only
// detaches that job's record, and the shared run is aborted only when
// the LAST waiter detaches (or skipped outright if that happens before
// an executor claims it). Either way the emptied flight leaves the
// index, so a later identical submission leads a fresh one.
//
// jobs, cancel and running are guarded by Scheduler.mu.
type flight struct {
	key  string
	spec JobSpec // the leader's validated spec — the tuple actually executed

	// The leader's identity and trace, captured at creation: the shared
	// engine-run span lives on the leader's timeline, and coalesced
	// waiters' traces cross-link it by leaderID. Immutable after
	// newFlight (the leader detaching does not reassign them — the
	// span's home does not move mid-run).
	leaderID    string
	leaderTrace *ftrace.Trace
	leaderRoot  ftrace.SpanID

	jobs    []*Job             // attached waiters (leader first); nil once sealed
	cancel  context.CancelFunc // the shared run's abort handle while it executes
	running bool
}

func newFlight(key string, spec JobSpec, leader *Job) *flight {
	return &flight{
		key: key, spec: spec, jobs: []*Job{leader},
		leaderID: leader.ID, leaderTrace: leader.trace, leaderRoot: leader.root,
	}
}

// attach adds job as a waiter on the shared run.
func (f *flight) attach(job *Job, now time.Time) {
	f.jobs = append(f.jobs, job)
	if f.running {
		job.markRunning(now)
	}
}

// begin marks the shared run started: every attached waiter goes
// running, and cancel becomes the run's abort handle. It returns the
// waiters present at start (nil when every waiter detached before an
// executor claimed the flight — the caller skips execution entirely).
func (f *flight) begin(cancel context.CancelFunc, now time.Time) []*Job {
	if len(f.jobs) == 0 {
		return nil
	}
	f.running = true
	f.cancel = cancel
	for _, j := range f.jobs {
		j.markRunning(now)
	}
	return append([]*Job(nil), f.jobs...)
}

// seal returns the waiters still attached — the fan-out set — and
// empties the flight, so a later detach finds nothing to remove.
func (f *flight) seal() []*Job {
	jobs := f.jobs
	f.jobs = nil
	return jobs
}

// detach removes job from the flight (a per-waiter cancellation). It
// reports whether the job was attached and whether it was the last
// waiter. Detaching the last waiter of a running flight returns the
// run's abort handle (nobody is left to want the result); detaching any
// earlier waiter leaves the shared run untouched. After seal the job is
// no longer attached: the result is landing.
func (f *flight) detach(job *Job) (detached, emptied bool, abort context.CancelFunc) {
	for i, j := range f.jobs {
		if j != job {
			continue
		}
		f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
		if len(f.jobs) > 0 {
			return true, false, nil
		}
		if f.running {
			abort = f.cancel
		}
		return true, true, abort
	}
	return false, false, nil
}
