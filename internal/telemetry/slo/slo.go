// Package slo computes multi-window burn rates over cumulative
// good/bad event counters — the SRE-style objective plane the serve
// path surfaces on /healthz and /snapshot.
//
// The model: an objective ("99% of jobs finish under 500 ms without
// error") defines an error budget of 1−target. The burn rate over a
// window is the observed bad fraction divided by that budget: burn 1.0
// consumes the budget exactly at the sustainable rate, burn 10 exhausts
// a 30-day budget in 3 days. Alerting on ONE window forces a bad trade
// (short = noisy, long = slow); the standard fix is to require BOTH a
// short and a long window to burn hot — the short window proves the
// problem is happening *now*, the long window proves it is not a blip.
// That is exactly what Degraded reports.
//
// The tracker is deliberately counter-based: the caller already owns
// cumulative good/bad counters (the serve scheduler's per-terminal
// accounting), and Evaluate samples them on demand. No background
// goroutine, no clock subscription — an unobserved tracker costs
// nothing, and a nil *Tracker is the disabled implementation.
package slo

import (
	"fmt"
	"sync"
	"time"
)

// burnThreshold is the rate at or above which BOTH windows must burn
// for Degraded: consuming budget faster than sustainable.
const burnThreshold = 1.0

// Config parameterizes a Tracker. Zero fields select defaults.
type Config struct {
	// Name labels the objective in Status and logs.
	Name string
	// Target is the objective success ratio in (0, 1) (default 0.99).
	// The error budget is 1 − Target.
	Target float64
	// ShortWindow and LongWindow are the two burn-rate windows
	// (defaults 5m and 1h). Short catches "it is on fire right now";
	// long filters blips.
	ShortWindow time.Duration
	LongWindow  time.Duration

	// now is the injectable clock (tests); nil selects time.Now.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "slo"
	}
	if c.Target == 0 {
		c.Target = 0.99
	}
	if c.ShortWindow == 0 {
		c.ShortWindow = 5 * time.Minute
	}
	if c.LongWindow == 0 {
		c.LongWindow = time.Hour
	}
	if c.LongWindow < c.ShortWindow {
		c.LongWindow = c.ShortWindow
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// sample is one observation of the cumulative counters.
type sample struct {
	t    time.Time
	good int64
	bad  int64
}

// Tracker evaluates one objective. All methods are nil-receiver safe.
type Tracker struct {
	cfg Config

	mu      sync.Mutex
	samples []sample // time-ordered observations, pruned past LongWindow
}

// New builds a tracker for cfg. The tracker is seeded with a zero
// observation at construction time: events counted before the first
// Evaluate call burn against that origin, so a service that fails from
// startup degrades on its very first probe instead of silently using
// its own first (already-bad) sample as the baseline.
func New(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	return &Tracker{cfg: cfg, samples: []sample{{t: cfg.now()}}}
}

// Status is one objective evaluation — the /snapshot "slo" shape.
type Status struct {
	Name   string  `json:"name"`
	Target float64 `json:"target"`
	// Good and Bad are the cumulative counts at evaluation time.
	Good int64 `json:"good"`
	Bad  int64 `json:"bad"`
	// BurnShort and BurnLong are the burn rates over the two windows
	// (1.0 = consuming error budget exactly at the sustainable rate).
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	// ShortWindowS and LongWindowS name the window lengths in seconds,
	// so a dashboard reading one snapshot needs no config lookup.
	ShortWindowS int64 `json:"short_window_s"`
	LongWindowS  int64 `json:"long_window_s"`
	// Degraded is true when BOTH windows burn at or above the
	// threshold; Reason says why in one line ("" while healthy).
	Degraded bool   `json:"degraded"`
	Reason   string `json:"reason,omitempty"`
}

// Evaluate records a fresh observation of the cumulative good/bad
// counters and returns the multi-window status. Counters must be
// monotone; a caller handing in decreasing values gets clamped deltas,
// not a panic. On a nil tracker it returns a zero (healthy) Status.
func (t *Tracker) Evaluate(good, bad int64) Status {
	if t == nil {
		return Status{}
	}
	now := t.cfg.now()
	t.mu.Lock()
	defer t.mu.Unlock()

	t.samples = append(t.samples, sample{t: now, good: good, bad: bad})
	// Prune to the long window, always keeping one sample at or past
	// the horizon so the long-window delta has a baseline.
	horizon := now.Add(-t.cfg.LongWindow)
	cut := 0
	for cut < len(t.samples)-1 && !t.samples[cut+1].t.After(horizon) {
		cut++
	}
	t.samples = t.samples[cut:]

	st := Status{
		Name:         t.cfg.Name,
		Target:       t.cfg.Target,
		Good:         good,
		Bad:          bad,
		ShortWindowS: int64(t.cfg.ShortWindow.Seconds()),
		LongWindowS:  int64(t.cfg.LongWindow.Seconds()),
	}
	cur := t.samples[len(t.samples)-1]
	st.BurnShort = t.burnLocked(cur, now.Add(-t.cfg.ShortWindow))
	st.BurnLong = t.burnLocked(cur, horizon)
	if st.BurnShort >= burnThreshold && st.BurnLong >= burnThreshold {
		st.Degraded = true
		st.Reason = fmt.Sprintf("%s burn rate %.2fx over %s and %.2fx over %s (threshold %.2fx, target %.3f)",
			t.cfg.Name, st.BurnShort, t.cfg.ShortWindow, st.BurnLong, t.cfg.LongWindow,
			burnThreshold, t.cfg.Target)
	}
	return st
}

// burnLocked computes the burn rate between the newest sample and the
// baseline sample for a window starting at `since` (caller holds mu).
// The baseline is the latest sample at or before the window start —
// with sparse observations the effective window is a little wider,
// never narrower, which biases toward the long-run rate rather than
// amplifying a single recent event.
func (t *Tracker) burnLocked(cur sample, since time.Time) float64 {
	base := t.samples[0]
	for _, s := range t.samples {
		if s.t.After(since) {
			break
		}
		base = s
	}
	dGood := cur.good - base.good
	dBad := cur.bad - base.bad
	if dGood < 0 {
		dGood = 0
	}
	if dBad < 0 {
		dBad = 0
	}
	total := dGood + dBad
	if total == 0 || dBad == 0 {
		return 0
	}
	badFrac := float64(dBad) / float64(total)
	budget := 1 - t.cfg.Target
	if budget <= 0 {
		// A 100% target has no budget: any bad event is an infinite
		// burn; report a large finite rate instead of +Inf (JSON-safe).
		return 1e9
	}
	return badFrac / budget
}
