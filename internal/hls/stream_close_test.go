package hls

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestStreamCloseDrainDeterministic pins the close/drain contract the
// Stream doc promises: after the producer closes, buffered values drain
// in order, and every read past the drain fails immediately and forever
// with ErrStreamClosed — it never blocks.
func TestStreamCloseDrainDeterministic(t *testing.T) {
	s := NewStream[int]("drain", 8)
	for i := 0; i < 5; i++ {
		put(s, i)
	}
	s.Close()

	// Buffered values drain in FIFO order after close.
	for i := 0; i < 5; i++ {
		v, err := get(s)
		if err != nil {
			t.Fatalf("read %d after close: unexpected error %v", i, err)
		}
		if v != i {
			t.Fatalf("read %d after close = %d, want %d", i, v, i)
		}
	}

	// Once drained, a read fails deterministically — and keeps failing.
	for i := 0; i < 3; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := get(s)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("read on drained stream: err = %v, want ErrStreamClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("read on closed-and-drained stream blocked instead of failing")
		}
	}
}

func TestStreamCloseSignalsBlockedReader(t *testing.T) {
	s := NewStream[int]("wake", 4)
	errc := make(chan error, 1)
	go func() {
		_, err := get(s)
		errc <- err
	}()
	// Give the reader time to block on the empty FIFO, then close: the
	// blocked read must wake up with ErrStreamClosed, not hang.
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("blocked read woken by Close: err = %v, want ErrStreamClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake a blocked read")
	}
}

func TestStreamWriteAfterClosePanics(t *testing.T) {
	s := NewStream[int]("werr", 2)
	s.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("write after Close did not panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("write-after-close panic = %v, want error wrapping ErrStreamClosed", r)
		}
	}()
	put(s, 1)
}

func TestStreamDoubleCloseNoOp(t *testing.T) {
	s := NewStream[int]("dbl", 2)
	s.Close()
	s.Close() // must not panic
	if _, err := get(s); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("read after double close: err = %v, want ErrStreamClosed", err)
	}
}

// TestStreamProducerConsumerShutdown runs the full dataflow shutdown
// protocol under the race detector: producer closes via defer, consumer
// drains to the deterministic end-of-stream error.
func TestStreamProducerConsumerShutdown(t *testing.T) {
	const n = 1000
	s := NewStream[int]("pc", 16)
	var got []int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer s.Close()
		for i := 0; i < n; i++ {
			put(s, i)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			v, err := get(s)
			if err != nil {
				if !errors.Is(err, ErrStreamClosed) {
					t.Errorf("consumer error %v, want ErrStreamClosed", err)
				}
				return
			}
			got = append(got, v)
		}
	}()
	wg.Wait()
	if len(got) != n {
		t.Fatalf("consumer drained %d values, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO order violated)", i, v, i)
		}
	}
}
