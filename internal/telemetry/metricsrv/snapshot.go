package metricsrv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// CheckSnapshot validates a /snapshot JSON body the way CheckExposition
// validates the Prometheus text format: the body must be exactly one
// well-formed snapshot object (unknown fields and trailing data are
// rejected), every instrument must be named, counter values and deltas
// must be non-negative, and histogram quantiles must be ordered
// (p50 ≤ p90 ≤ p99) with an empty histogram carrying no sum or max.
// It returns the instrument counts per type so callers can assert
// minimum coverage, mirroring CheckExposition. No binary calls it: it is
// test support for the same tests as CheckExposition.
//
// Delta semantics: the server computes each counter's delta against the
// previous /snapshot scrape. Counters only add (telemetry.Counter has no
// Set), so a negative delta means a counter went backwards — corruption,
// or a per-run value written where every run's sum belongs — which the
// smoke gates must catch.
func CheckSnapshot(body []byte) (counters, gauges, histograms int, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var b snapshotBody
	if err := dec.Decode(&b); err != nil {
		return 0, 0, 0, fmt.Errorf("snapshot is not well-formed JSON: %w", err)
	}
	// More reports false before a stray '}' or ']', so ask for the
	// next token: only the end of input may follow the object.
	if _, err := dec.Token(); err != io.EOF {
		return 0, 0, 0, errors.New("trailing data after the snapshot object")
	}
	for _, c := range b.Counters {
		if c.Name == "" {
			return 0, 0, 0, errors.New("counter with empty name")
		}
		if c.Value < 0 {
			return 0, 0, 0, fmt.Errorf("counter %s: negative value %d", c.Name, c.Value)
		}
		if c.Delta < 0 {
			return 0, 0, 0, fmt.Errorf("counter %s: negative delta %d (decreased between scrapes)", c.Name, c.Delta)
		}
	}
	for _, g := range b.Gauges {
		if g.Name == "" {
			return 0, 0, 0, errors.New("gauge with empty name")
		}
	}
	for _, h := range b.Histograms {
		if h.Name == "" {
			return 0, 0, 0, errors.New("histogram with empty name")
		}
		if h.Count < 0 || h.Sum < 0 {
			return 0, 0, 0, fmt.Errorf("histogram %s: negative count/sum (%d, %d)", h.Name, h.Count, h.Sum)
		}
		if h.P50 > h.P90 || h.P90 > h.P99 {
			return 0, 0, 0, fmt.Errorf("histogram %s: quantiles out of order (p50=%d p90=%d p99=%d)",
				h.Name, h.P50, h.P90, h.P99)
		}
		if h.Count == 0 && (h.Sum != 0 || h.Max != 0) {
			return 0, 0, 0, fmt.Errorf("histogram %s: empty but sum=%d max=%d", h.Name, h.Sum, h.Max)
		}
	}
	return len(b.Counters), len(b.Gauges), len(b.Histograms), nil
}

// SnapshotCounterValue extracts one counter's cumulative value from a
// /snapshot JSON body by exact instrument name (including any [instance]
// suffix). The boolean reports whether the counter was present — smoke
// gates use this to assert a live server actually exercised a code path
// (e.g. serve.cache.hits ≥ 1 after a repeat submission).
func SnapshotCounterValue(body []byte, name string) (int64, bool, error) {
	var b snapshotBody
	if err := json.Unmarshal(body, &b); err != nil {
		return 0, false, fmt.Errorf("snapshot is not well-formed JSON: %w", err)
	}
	for _, c := range b.Counters {
		if c.Name == name {
			return c.Value, true, nil
		}
	}
	return 0, false, nil
}
