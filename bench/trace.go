package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call: the program itself is not instrumented. Times are
// nanoseconds since the span log was made; spans of one job share Job
// and point at the span that caused them through Parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Job    int64  `json:"job,omitempty"`
}

// spanLog keeps a run's spans in memory until the run ends. A nil log
// records nothing, which is how untraced windows run. It is safe for
// concurrent use.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// open starts a span at start and returns its id (0 on a nil log).
func (l *spanLog) open(name string, parent int, start time.Time, job int64) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(l.origin).Nanoseconds(), Job: job})
	return id
}

// close ends span id at end.
func (l *spanLog) close(id int, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.Dur = end.Sub(l.origin).Nanoseconds() - s.Start
}

// add records a span that lasted d from start.
func (l *spanLog) add(name string, parent int, start time.Time, d time.Duration, job int64) {
	l.close(l.open(name, parent, start, job), start.Add(d))
}

func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans
}

// writeSpans writes every workload's spans as one JSON document.
func writeSpans(path string, results []*result) error {
	type workloadSpans struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}
	var doc struct {
		Workloads []workloadSpans `json:"workloads"`
	}
	for _, r := range results {
		doc.Workloads = append(doc.Workloads, workloadSpans{r.Workload, r.Seed, r.Spans})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
