package hls

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"github.com/decwi/decwi/internal/rng"
)

// put and get move one value through the stream: a one-value burst is
// the per-cycle handshake of Listing 1.
func put[T any](s *Stream[T], v T) { s.WriteBurst([]T{v}) }

func get[T any](s *Stream[T]) (T, error) {
	var v [1]T
	_, err := s.ReadBurst(v[:])
	return v[0], err
}

func mustGet[T any](t *testing.T, s *Stream[T]) T {
	t.Helper()
	v, err := get(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestStreamFIFOOrder(t *testing.T) {
	s := NewStream[int]("fifo", 8)
	for i := 0; i < 8; i++ {
		put(s, i)
	}
	for i := 0; i < 8; i++ {
		v, err := get(s)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("got %d want %d", v, i)
		}
	}
}

func TestStreamBlockingHandshake(t *testing.T) {
	s := NewStream[int]("hs", 1)
	done := make(chan struct{})
	go func() {
		// Second write must block until the consumer reads.
		put(s, 1)
		put(s, 2)
		close(done)
	}()
	if v := mustGet(t, s); v != 1 {
		t.Fatalf("got %d", v)
	}
	if v := mustGet(t, s); v != 2 {
		t.Fatalf("got %d", v)
	}
	<-done
	writes, reads, hw := s.Stats()
	if writes != 2 || reads != 2 {
		t.Fatalf("stats writes=%d reads=%d", writes, reads)
	}
	if hw < 1 {
		t.Fatalf("high water %d", hw)
	}
}

func TestStreamCloseSemantics(t *testing.T) {
	s := NewStream[int]("close", 4)
	put(s, 7)
	s.Close()
	s.Close() // idempotent
	if v, err := get(s); err != nil || v != 7 {
		t.Fatalf("drain failed: %v %v", v, err)
	}
	if _, err := get(s); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("want ErrStreamClosed, got %v", err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("write after close must panic")
		}
	}()
	put(s, 8)
}

func TestStreamDepthClamp(t *testing.T) {
	s := NewStream[int]("d", 0)
	go func() {
		defer s.Close()
		s.WriteBurst([]int{1, 2, 3})
	}()
	got := make([]int, 3)
	if n, err := s.ReadBurst(got); n != 3 || err != nil {
		t.Fatalf("ReadBurst n=%d err=%v", n, err)
	}
	if _, _, hw := s.Stats(); hw != 1 {
		t.Fatalf("high water %d, want depth clamped to 1", hw)
	}
	if s.Name() != "d" {
		t.Fatalf("name %q", s.Name())
	}
}

func TestRegDelayShiftSemantics(t *testing.T) {
	r := NewRegDelay(2) // 3 stages
	if r.Stages() != 3 {
		t.Fatalf("stages %d", r.Stages())
	}
	inputs := []uint32{10, 20, 30, 40, 50}
	for i, in := range inputs {
		r.Update(in)
		want := uint32(0)
		if i >= 2 {
			want = inputs[i-2]
		}
		if got := r.Delayed(); got != want {
			t.Fatalf("after input %d: delayed %d want %d", i, got, want)
		}
	}
}

func TestRegDelayNegativeBreakID(t *testing.T) {
	r := NewRegDelay(-5)
	if r.Stages() != 1 {
		t.Fatalf("negative breakID should clamp to one stage, got %d", r.Stages())
	}
	r.Update(9)
	if r.Delayed() != 9 {
		t.Fatal("single-stage delay should pass through after one update")
	}
}

// TestScheduleII reproduces the paper's central scheduling fact: a
// direct counter→exit dependency with a 2-cycle chain forces II=2, while
// reading the counter through the breakId=0 delay register restores II=1.
func TestScheduleII(t *testing.T) {
	const counterChainLatency = 2 // increment + compare/steer

	direct := ScheduleII([]Dependence{DirectCounterDependence(counterChainLatency)})
	if direct != 2 {
		t.Fatalf("direct dependency: II=%d, want 2", direct)
	}
	delayed := ScheduleII([]Dependence{DelayedCounterDependence(counterChainLatency, 0)})
	if delayed != 1 {
		t.Fatalf("delayed dependency (breakId=0): II=%d, want 1", delayed)
	}
	// "This index is kept as low as possible": deeper chains need larger
	// breakId; latency 4 needs breakId=1 (distance 3 ⇒ ceil(4/3)=2; not
	// enough) … verify the arithmetic explicitly.
	if got := ScheduleII([]Dependence{DelayedCounterDependence(4, 0)}); got != 2 {
		t.Fatalf("latency 4, breakId 0: II=%d, want 2", got)
	}
	if got := ScheduleII([]Dependence{DelayedCounterDependence(4, 2)}); got != 1 {
		t.Fatalf("latency 4, breakId 2: II=%d, want 1", got)
	}
	// Empty dependency list → ideal pipeline.
	if got := ScheduleII(nil); got != 1 {
		t.Fatalf("no deps: II=%d", got)
	}
	// Degenerate dependences behave benignly.
	if got := (Dependence{Latency: 0, Distance: 0}).RecurrenceII(); got != 1 {
		t.Fatalf("degenerate dependence II=%d", got)
	}
}

func TestPipelinedLoopCycles(t *testing.T) {
	l, err := NewPipelinedLoop("MAINLOOP", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Cycles(0); got != 0 {
		t.Fatalf("0 trips: %d", got)
	}
	if got := l.Cycles(1); got != 40 {
		t.Fatalf("1 trip: %d", got)
	}
	if got := l.Cycles(1000); got != 40+999 {
		t.Fatalf("1000 trips: %d", got)
	}
	if th := l.Throughput(); th != 1 {
		t.Fatalf("throughput %f", th)
	}
	l2, _ := NewPipelinedLoop("slow", 40, 2)
	if got := l2.Cycles(1000); got != 40+999*2 {
		t.Fatalf("II=2 1000 trips: %d", got)
	}
	if _, err := NewPipelinedLoop("bad", 0, 1); err == nil {
		t.Fatal("depth 0 should fail")
	}
	if _, err := NewPipelinedLoop("bad", 1, 0); err == nil {
		t.Fatal("II 0 should fail")
	}
}

// TestDynamicExitExactness: the guarded write emits exactly limitMain
// outputs regardless of the validity pattern, and the overshoot equals
// breakID+1 when limitMax does not bind.
func TestDynamicExitExactness(t *testing.T) {
	src := rng.NewSplitMix64(1)
	for _, breakID := range []int{0, 1, 3} {
		for _, acceptPct := range []uint32{100, 77, 30} {
			valid := func(k int64) bool { return src.Uint32()%100 < acceptPct }
			res, err := SimulateDynamicExit(1000, 1<<40, breakID, valid, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Emitted != 1000 {
				t.Fatalf("breakID=%d acc=%d: emitted %d, want exactly 1000", breakID, acceptPct, res.Emitted)
			}
			if res.Overshoot != MaxOvershoot(breakID) {
				t.Fatalf("breakID=%d acc=%d: overshoot %d, want %d", breakID, acceptPct, res.Overshoot, MaxOvershoot(breakID))
			}
			if res.HitLimitMax {
				t.Fatal("should not hit limitMax")
			}
		}
	}
}

// TestDynamicExitLimitMax: when the stochastic process starves the loop,
// the k<limitMax guard terminates it and reports the truncation.
func TestDynamicExitLimitMax(t *testing.T) {
	res, err := SimulateDynamicExit(100, 50, 0, func(int64) bool { return false }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HitLimitMax {
		t.Fatal("expected limitMax truncation")
	}
	if res.Trips != 50 || res.Emitted != 0 {
		t.Fatalf("trips=%d emitted=%d", res.Trips, res.Emitted)
	}
}

// TestDynamicExitEmitCallback checks the emission indices are strictly
// increasing and within the trip range.
func TestDynamicExitEmitCallback(t *testing.T) {
	var ks []int64
	res, err := SimulateDynamicExit(10, 1<<20, 0,
		func(k int64) bool { return k%3 == 0 },
		func(k int64) { ks = append(ks, k) })
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(ks)) != res.Emitted || res.Emitted != 10 {
		t.Fatalf("emitted %d callbacks %d", res.Emitted, len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatal("emission indices not increasing")
		}
	}
	if ks[len(ks)-1] >= res.Trips {
		t.Fatal("emission beyond trip count")
	}
}

// TestDynamicExitErrors covers the validation path.
func TestDynamicExitErrors(t *testing.T) {
	if _, err := SimulateDynamicExit(-1, 10, 0, func(int64) bool { return true }, nil); err == nil {
		t.Fatal("negative limitMain should fail")
	}
	if _, err := SimulateDynamicExit(10, -1, 0, func(int64) bool { return true }, nil); err == nil {
		t.Fatal("negative limitMax should fail")
	}
}

// TestPropertyDynamicExit: for any acceptance pattern and breakID, either
// exactly limitMain values are emitted with bounded overshoot, or the
// loop was truncated by limitMax.
func TestPropertyDynamicExit(t *testing.T) {
	f := func(seed uint64, breakIDRaw uint8, limitRaw uint16) bool {
		breakID := int(breakIDRaw % 4)
		limitMain := int64(limitRaw%500) + 1
		src := rng.NewSplitMix64(seed)
		res, err := SimulateDynamicExit(limitMain, 100000, breakID,
			func(int64) bool { return src.Uint32()%4 != 0 }, nil)
		if err != nil {
			return false
		}
		if res.HitLimitMax {
			return res.Emitted < limitMain
		}
		return res.Emitted == limitMain && res.Overshoot <= MaxOvershoot(breakID)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDataflowRunsConcurrently wires a producer and consumer through a
// depth-1 stream: only genuinely concurrent execution can complete.
func TestDataflowRunsConcurrently(t *testing.T) {
	s := NewStream[int]("pc", 1)
	sum := 0
	err := Dataflow([]Process{
		{Name: "producer", Run: func() error {
			for i := 1; i <= 1000; i++ {
				put(s, i)
			}
			s.Close()
			return nil
		}},
		{Name: "consumer", Run: func() error {
			for {
				v, err := get(s)
				if errors.Is(err, ErrStreamClosed) {
					return nil
				}
				if err != nil {
					return err
				}
				sum += v
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 1000*1001/2 {
		t.Fatalf("sum %d", sum)
	}
}

// TestDataflowErrorAggregation: failing and panicking processes are both
// reported, and healthy ones still complete.
func TestDataflowErrorAggregation(t *testing.T) {
	var okRan bool
	var mu sync.Mutex
	err := Dataflow([]Process{
		{Name: "boom", Run: func() error { return fmt.Errorf("deliberate") }},
		{Name: "panic", Run: func() error { panic("kaboom") }},
		{Name: "fine", Run: func() error {
			mu.Lock()
			okRan = true
			mu.Unlock()
			return nil
		}},
	})
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	if !okRan {
		t.Fatal("healthy process did not run")
	}
	for _, want := range []string{"boom", "deliberate", "panic", "kaboom"} {
		if !containsStr(err.Error(), want) {
			t.Fatalf("error %q missing %q", err.Error(), want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func BenchmarkSimulateDynamicExit(b *testing.B) {
	src := rng.NewSplitMix64(1)
	for i := 0; i < b.N; i++ {
		_, _ = SimulateDynamicExit(1000, 1<<30, 0,
			func(int64) bool { return src.Uint32()%4 != 0 }, nil)
	}
}

// BenchmarkAblationCounterDelay quantifies DESIGN.md's decision 1: the
// delayed-counter loop exit keeps II=1; the direct dependency forces
// II=2 and doubles steady-state cycles.
func BenchmarkAblationCounterDelay(b *testing.B) {
	const latency = 2
	for i := 0; i < b.N; i++ {
		direct := ScheduleII([]Dependence{DirectCounterDependence(latency)})
		delayed := ScheduleII([]Dependence{DelayedCounterDependence(latency, 0)})
		ld, _ := NewPipelinedLoop("direct", 48, direct)
		lv, _ := NewPipelinedLoop("delayed", 48, delayed)
		if i == 0 {
			b.ReportMetric(float64(ld.Cycles(1_000_000))/float64(lv.Cycles(1_000_000)), "II2/II1-cycles")
		}
	}
}
