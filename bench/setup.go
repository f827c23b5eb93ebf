package main

import "time"

// setupSampler measures set-up n times, spread evenly over a window,
// between the window's timed calls or rounds. A shared host slows down in
// stretches of 0.5–3 s; set-ups made in one burst all land in one slow or
// one quiet stretch, so the median of a burst jumps between runs. Spread
// out, the median sees the whole window.
type setupSampler struct {
	measure func() (time.Duration, error)
	n       int
	start   time.Time
	window  time.Duration
	times   []time.Duration
	ends    []time.Time // when each set-up finished
	err     error
}

// newSetupSampler starts the window now.
func newSetupSampler(n int, window time.Duration, measure func() (time.Duration, error)) *setupSampler {
	return &setupSampler{measure: measure, n: max(n, 1), start: time.Now(), window: window}
}

// between runs the next set-up if its turn in the window has come.
func (s *setupSampler) between() {
	due := time.Duration(len(s.times)) * s.window / time.Duration(s.n)
	if s.err == nil && len(s.times) < s.n && time.Since(s.start) >= due {
		s.run()
	}
}

func (s *setupSampler) run() {
	d, err := s.measure()
	if err != nil {
		s.err = err
		return
	}
	s.times = append(s.times, d)
	s.ends = append(s.ends, time.Now())
}

// finish makes the set-ups the window ended before reaching.
func (s *setupSampler) finish() error {
	for s.err == nil && len(s.times) < s.n {
		s.run()
	}
	return s.err
}
