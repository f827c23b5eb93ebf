package opencl

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestQueueCompletionOrder verifies the in-order contract at the
// completion level: commands finish in submission order and their
// simulated profiling windows tile the device timeline back to back.
func TestQueueCompletionOrder(t *testing.T) {
	q, err := NewCommandQueue(paperDevice("FPGA"))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Release()

	const n = 32
	var mu sync.Mutex
	var completed []int
	evs := make([]*Event, n)
	for i := 0; i < n; i++ {
		i := i
		k := &Kernel{
			Name: fmt.Sprintf("k%d", i),
			Run: func(NDRange) error {
				mu.Lock()
				completed = append(completed, i)
				mu.Unlock()
				return nil
			},
			Model: func(NDRange) time.Duration { return time.Microsecond },
		}
		ev, err := q.EnqueueTask(k)
		if err != nil {
			t.Fatal(err)
		}
		evs[i] = ev
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(completed) != n {
		t.Fatalf("completed %d commands, want %d", len(completed), n)
	}
	for i, got := range completed {
		if got != i {
			t.Fatalf("completion order[%d] = k%d, want k%d", i, got, i)
		}
	}
	// Profiling windows must be monotone and gap-free on the sim clock.
	var prevEnd time.Duration
	for i, ev := range evs {
		s, e, err := ev.ProfilingInfo()
		if err != nil {
			t.Fatal(err)
		}
		if s != prevEnd {
			t.Fatalf("k%d starts at %v, want %v (in-order queue leaves no gap)", i, s, prevEnd)
		}
		if e != s+time.Microsecond {
			t.Fatalf("k%d window %v..%v, want 1µs duration", i, s, e)
		}
		prevEnd = e
	}
}

// TestQueueConcurrentEnqueue hammers one in-order queue from several
// goroutines (run under -race via the tier-1 gate): every command must
// execute exactly once, serially, and each goroutine's own commands must
// complete in its submission order.
func TestQueueConcurrentEnqueue(t *testing.T) {
	q, err := NewCommandQueue(paperDevice("FPGA"))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Release()

	const producers = 8
	const perProducer = 50

	// execOrder records global execution order; the worker goroutine is
	// the only writer, so no lock is needed — the race detector verifies
	// exactly that.
	type stamp struct{ producer, seq int }
	var execOrder []stamp
	inFlight := 0

	var wg sync.WaitGroup
	errs := make([]error, producers)
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < perProducer; s++ {
				s := s
				k := &Kernel{
					Name: fmt.Sprintf("p%d-%d", p, s),
					Run: func(NDRange) error {
						inFlight++
						if inFlight != 1 {
							return fmt.Errorf("command overlap: %d in flight", inFlight)
						}
						execOrder = append(execOrder, stamp{p, s})
						inFlight--
						return nil
					},
				}
				ev, err := q.EnqueueTask(k)
				if err != nil {
					errs[p] = err
					return
				}
				if err := ev.Wait(); err != nil {
					errs[p] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("producer %d: %v", p, err)
		}
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}

	if len(execOrder) != producers*perProducer {
		t.Fatalf("executed %d commands, want %d", len(execOrder), producers*perProducer)
	}
	// Per-producer sequence must be monotone (each goroutine waited for
	// its previous command, so the queue must have preserved its order).
	next := make([]int, producers)
	for i, st := range execOrder {
		if st.seq != next[st.producer] {
			t.Fatalf("exec[%d]: producer %d ran seq %d, want %d", i, st.producer, st.seq, next[st.producer])
		}
		next[st.producer]++
	}
}

// TestQueueConcurrentEnqueueNoWait checks the fire-and-forget variant:
// goroutines enqueue without waiting, then a single Finish drains
// everything; the total must match and no command may run concurrently
// with another.
func TestQueueConcurrentEnqueueNoWait(t *testing.T) {
	q, err := NewCommandQueue(paperDevice("CPU"))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Release()

	const producers = 6
	const perProducer = 40
	count := 0 // worker-goroutine only; -race proves serialization

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < perProducer; s++ {
				if _, err := q.EnqueueTask(&Kernel{
					Name: "bump",
					Run:  func(NDRange) error { count++; return nil },
				}); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if count != producers*perProducer {
		t.Fatalf("executed %d commands, want %d", count, producers*perProducer)
	}
}
