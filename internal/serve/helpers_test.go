package serve

// Accessors only the tests read.

// Payload returns the result's wire bytes and the state they were
// observed under; the bytes are non-nil only in StateDone. The slice is
// the one stored result, shared with the cache, every coalesced job and
// every download — no copy is made, and callers must not modify it.
func (j *Job) Payload() ([]byte, JobState) {
	res, state := j.Result()
	if res == nil {
		return nil, state
	}
	return res.raw, state
}

// Draining reports whether the scheduler has stopped admitting.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// tenantBytes is one tenant's attributed occupancy.
func (c *resultCache) tenantBytes(tenant string) int64 { return c.perTenant[tenant] }
