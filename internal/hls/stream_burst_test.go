package hls

import (
	"errors"
	"sync"
	"testing"

	"github.com/decwi/decwi/internal/telemetry"
)

// TestStreamBurstFIFOOrder: WriteBurst/ReadBurst preserve FIFO order
// across chunk boundaries, including bursts larger than the FIFO depth
// and ragged batch sizes that force ring wraparound.
func TestStreamBurstFIFOOrder(t *testing.T) {
	const total = 10_000
	for _, depth := range []int{1, 3, 16, 64} {
		for _, batch := range []int{1, 5, 16, 100} {
			s := NewStream[int]("burst", depth)
			go func() {
				defer s.Close()
				buf := make([]int, 0, batch)
				for i := 0; i < total; i++ {
					buf = append(buf, i)
					if len(buf) == batch {
						s.WriteBurst(buf)
						buf = buf[:0]
					}
				}
				s.WriteBurst(buf) // ragged tail
			}()
			var got []int
			dst := make([]int, 7) // co-prime with batch sizes → wraparound
			for {
				n, err := s.ReadBurst(dst)
				if err != nil {
					if !errors.Is(err, ErrStreamClosed) {
						t.Fatalf("depth=%d batch=%d: %v", depth, batch, err)
					}
					break
				}
				got = append(got, dst[:n]...)
			}
			if len(got) != total {
				t.Fatalf("depth=%d batch=%d: drained %d of %d", depth, batch, len(got), total)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("depth=%d batch=%d: got[%d]=%d (order violated)", depth, batch, i, v)
				}
			}
			w, r, _ := s.Stats()
			if w != total || r != total {
				t.Fatalf("stats writes=%d reads=%d want %d", w, r, total)
			}
		}
	}
}

// TestStreamBurstMixedWithPerValue: one-value bursts (the per-cycle
// handshake) interleaved with longer bursts on one FIFO preserve order.
func TestStreamBurstMixedWithPerValue(t *testing.T) {
	s := NewStream[int]("mix", 8)
	go func() {
		defer s.Close()
		put(s, 0)
		s.WriteBurst([]int{1, 2, 3})
		put(s, 4)
		s.WriteBurst([]int{5, 6, 7, 8, 9})
	}()
	for i := 0; i < 3; i++ {
		if v := mustGet(t, s); v != i {
			t.Fatalf("one-value read %d got %d", i, v)
		}
	}
	dst := make([]int, 7)
	n, err := s.ReadBurst(dst)
	if err != nil || n != 7 {
		t.Fatalf("ReadBurst n=%d err=%v", n, err)
	}
	for i, v := range dst {
		if v != i+3 {
			t.Fatalf("dst[%d]=%d want %d", i, v, i+3)
		}
	}
	if _, err := s.ReadBurst(dst); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("drained ReadBurst err=%v, want ErrStreamClosed", err)
	}
}

// TestStreamReadBurstShortOnClose: a close mid-stream makes ReadBurst
// return the values it got (n < len(dst), nil error), then fail with
// ErrStreamClosed once drained.
func TestStreamReadBurstShortOnClose(t *testing.T) {
	s := NewStream[int]("short", 16)
	s.WriteBurst([]int{1, 2, 3})
	s.Close()
	dst := make([]int, 8)
	n, err := s.ReadBurst(dst)
	if err != nil || n != 3 {
		t.Fatalf("short read n=%d err=%v, want 3, nil", n, err)
	}
	if n, err := s.ReadBurst(dst); n != 0 || !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("drained burst read n=%d err=%v", n, err)
	}
	// Zero-length destination is a no-op even on a drained stream.
	if n, err := s.ReadBurst(nil); n != 0 || err != nil {
		t.Fatalf("nil dst n=%d err=%v", n, err)
	}
}

// TestStreamWriteBurstAfterClosePanics: the batched write path honours
// the write-after-close design-error panic.
func TestStreamWriteBurstAfterClosePanics(t *testing.T) {
	s := NewStream[int]("wbc", 4)
	s.Close()
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("WriteBurst-after-close panic = %v, want error wrapping ErrStreamClosed", r)
		}
	}()
	s.WriteBurst([]int{1, 2})
}

// TestStreamProbesAfterCloseWithPartialBurst pins what a consumer sees
// after Close with a partially filled FIFO: Len keeps reporting the
// buffered values, they drain in order, and only then does the stream
// reach the terminal closed-and-empty state.
func TestStreamProbesAfterCloseWithPartialBurst(t *testing.T) {
	s := NewStream[int]("probe", 8)
	s.WriteBurst([]int{10, 11, 12}) // partial burst: 3 of 8
	s.Close()

	if got := s.Len(); got != 3 {
		t.Fatalf("Len() = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if v := mustGet(t, s); v != 10+i {
			t.Fatalf("read %d = %d, want %d", i, v, 10+i)
		}
	}
	if _, err := get(s); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("read on closed-and-drained stream: err = %v, want ErrStreamClosed", err)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("drained Len() = %d, want 0", got)
	}
}

// TestStreamFullProbe: a full FIFO reports its capacity in Len until the
// consumer makes space, including across a Close.
func TestStreamFullProbe(t *testing.T) {
	s := NewStream[int]("full", 2)
	if s.Len() != 0 {
		t.Fatal("Len() on empty stream")
	}
	s.WriteBurst([]int{1, 2})
	if s.Len() != 2 {
		t.Fatal("Len() below capacity after a full burst")
	}
	s.Close()
	if s.Len() != 2 {
		t.Fatal("Len() must keep reporting buffered capacity after Close")
	}
	mustGet(t, s)
	if s.Len() != 1 {
		t.Fatal("Len() after one read")
	}
}

// TestStreamWriteCloseRaceStress is the regression test for the
// write/close race window: a Close landing while the producer is
// writing must surface as the documented ErrStreamClosed panic (or let
// the write complete), never as a raw "send on closed channel" runtime
// panic or a torn FIFO. Run under -race via the tier-1 gate.
func TestStreamWriteCloseRaceStress(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		s := NewStream[int]("race", 4)
		var wg sync.WaitGroup
		wg.Add(3)
		start := make(chan struct{})

		// Producer: one-value and longer bursts; a panic must wrap
		// ErrStreamClosed.
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					err, ok := r.(error)
					if !ok || !errors.Is(err, ErrStreamClosed) {
						t.Errorf("producer panic = %v, want error wrapping ErrStreamClosed", r)
					}
				}
			}()
			<-start
			for i := 0; ; i++ {
				if i%2 == 0 {
					put(s, i)
				} else {
					s.WriteBurst([]int{i, i + 1, i + 2})
				}
			}
		}()

		// Consumer: drains until the deterministic end-of-stream error.
		go func() {
			defer wg.Done()
			<-start
			dst := make([]int, 3)
			for {
				if _, err := s.ReadBurst(dst); err != nil {
					if !errors.Is(err, ErrStreamClosed) {
						t.Errorf("consumer error %v, want ErrStreamClosed", err)
					}
					return
				}
			}
		}()

		// Racing closer (deliberate contract violation: not the producer).
		go func() {
			defer wg.Done()
			<-start
			s.Close()
		}()

		close(start)
		wg.Wait()
	}
}

// TestStreamBurstTelemetryBulkCounters: bursts bulk-increment the
// push/pop counters and the burst-size accounting pair, and never
// desynchronize from Stats, whatever the burst size.
func TestStreamBurstTelemetryBulkCounters(t *testing.T) {
	rec := telemetry.New(1 << 10)
	s := NewStream[float32]("tb", 32)
	s.Instrument(rec)

	const total = 1000
	go func() {
		defer s.Close()
		buf := make([]float32, 16)
		for i := 0; i < total/16; i++ {
			for j := range buf {
				buf[j] = float32(i*16 + j)
			}
			s.WriteBurst(buf)
		}
		for i := total - total%16; i < total; i++ {
			put(s, float32(i)) // one-value tail on the same stream
		}
	}()
	dst := make([]float32, 16)
	var n int
	for {
		m, err := s.ReadBurst(dst)
		n += m
		if err != nil {
			break
		}
	}
	if n != total {
		t.Fatalf("drained %d of %d", n, total)
	}

	byName := map[string]int64{}
	for _, c := range rec.Counters() {
		byName[c.Name()] = c.Value()
	}
	if byName["stream.tb.push"] != total || byName["stream.tb.pop"] != total {
		t.Fatalf("bulk counters push=%d pop=%d, want %d", byName["stream.tb.push"], byName["stream.tb.pop"], total)
	}
	if byName["stream.tb.burst-values"] == 0 || byName["stream.tb.burst-ops"] == 0 {
		t.Fatalf("burst accounting missing: values=%d ops=%d", byName["stream.tb.burst-values"], byName["stream.tb.burst-ops"])
	}
	w, r, _ := s.Stats()
	if int64(w) != total || int64(r) != total {
		t.Fatalf("Stats writes=%d reads=%d", w, r)
	}
}
