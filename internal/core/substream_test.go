package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/gamma"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

func substreamConfig() Config {
	return Config{
		Transform:      normal.MarsagliaBray,
		MTParams:       mt.MT521Params,
		WorkItems:      3,
		Scenarios:      901,
		Sectors:        2,
		SectorVariance: 1.39,
		Seed:           11,
	}
}

func floatBytes(xs []float32) []byte {
	var buf bytes.Buffer
	_ = binary.Write(&buf, binary.LittleEndian, xs)
	return buf.Bytes()
}

// TestStreamOffsetSeekEquivalence: the O(log n) jump seek must land
// where the O(n) word-by-word walk does — the fused chunk path and the
// streamed Run path at StreamOffset 4099 both reproduce the gated
// oracle, which applies the offset with AdvanceStreams — and a nonzero
// offset must actually move the stream.
func TestStreamOffsetSeekEquivalence(t *testing.T) {
	cfg := substreamConfig()
	baseline := runChunked(t, cfg).Data

	cfg.StreamOffset = 4099
	stepped := gatedReference(t, cfg)
	sameRun(t, "jumped RunChunk vs stepped oracle", stepped, runChunked(t, cfg))
	sameRun(t, "jumped Run vs stepped oracle", stepped, runSmall(t, cfg))
	if bytes.Equal(floatBytes(stepped.Data), floatBytes(baseline)) {
		t.Fatal("StreamOffset=4099 left the output unchanged")
	}
}

// TestRunItemPartDeterministicPartition: the (wid, part) grid must tile
// the output buffer exactly, produce identical bytes regardless of
// execution order, and differ from the default stream family.
func TestRunItemPartDeterministicPartition(t *testing.T) {
	cfg := substreamConfig()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 3
	total := cfg.Scenarios * int64(cfg.Sectors)

	runGrid := func(order []int) []float32 {
		dst := make([]float32, total)
		for _, u := range order {
			wid, part := u/parts, u%parts
			var st WorkItemStats
			if err := e.RunItemPart(context.Background(), dst, wid, part, parts, &st); err != nil {
				t.Fatalf("unit (%d,%d): %v", wid, part, err)
			}
			quota, _ := e.PartQuota(wid, part, parts)
			if st.Scenarios != quota {
				t.Fatalf("unit (%d,%d): stats quota %d, want %d", wid, part, st.Scenarios, quota)
			}
			if quota > 0 && st.Accepted == 0 {
				t.Fatalf("unit (%d,%d): no accepted outputs", wid, part)
			}
		}
		return dst
	}

	units := cfg.WorkItems * parts
	inOrder := make([]int, units)
	for i := range inOrder {
		inOrder[i] = i
	}
	shuffled := append([]int(nil), inOrder...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	a := runGrid(inOrder)
	b := runGrid(shuffled)
	if !bytes.Equal(floatBytes(a), floatBytes(b)) {
		t.Fatal("substream grid output depends on execution order")
	}
	for i, v := range a {
		if !(v > 0) {
			t.Fatalf("output %d not a positive gamma variate: %g (grid did not tile the buffer)", i, v)
		}
	}
	if bytes.Equal(floatBytes(a), floatBytes(runChunked(t, cfg).Data)) {
		t.Fatal("parts=3 stream family coincides with the default family")
	}
}

// TestRunItemPartSinglePartMatchesFused: parts == 1 must stay
// byte-identical to the fused work-item path (the substream machinery is
// additive).
func TestRunItemPartSinglePartMatchesFused(t *testing.T) {
	cfg := substreamConfig()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := runChunked(t, cfg).Data
	dst := make([]float32, len(want))
	for wid := 0; wid < cfg.WorkItems; wid++ {
		var st WorkItemStats
		if err := e.RunItemPart(context.Background(), dst, wid, 0, 1, &st); err != nil {
			t.Fatal(err)
		}
		if st.Scenarios != e.per[wid] {
			t.Fatalf("wid %d: single-part quota %d, want %d", wid, st.Scenarios, e.per[wid])
		}
	}
	if !bytes.Equal(floatBytes(dst), floatBytes(want)) {
		t.Fatal("parts=1 diverges from the fused path")
	}
}

// TestRunItemPartEdgeCases: tiny quotas (more parts than scenarios per
// work-item) must yield empty parts that write nothing, and invalid
// coordinates must be rejected.
func TestRunItemPartEdgeCases(t *testing.T) {
	cfg := substreamConfig()
	cfg.Scenarios = 5 // per-wid quotas {2,2,1}; parts beyond quota are empty
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	dst := make([]float32, cfg.Scenarios*int64(cfg.Sectors))
	for wid := 0; wid < cfg.WorkItems; wid++ {
		var sum int64
		for part := 0; part < parts; part++ {
			var st WorkItemStats
			if err := e.RunItemPart(context.Background(), dst, wid, part, parts, &st); err != nil {
				t.Fatal(err)
			}
			sum += st.Scenarios
		}
		if sum != e.per[wid] {
			t.Fatalf("wid %d: part quotas sum to %d, want %d", wid, sum, e.per[wid])
		}
	}
	for i, v := range dst {
		if !(v > 0) {
			t.Fatalf("output %d not filled: %g", i, v)
		}
	}
	if err := e.RunItemPart(context.Background(), dst, 99, 0, 2, nil); err == nil {
		t.Fatal("out-of-range wid accepted")
	}
	if err := e.RunItemPart(context.Background(), dst, 0, 2, 2, nil); err == nil {
		t.Fatal("out-of-range part accepted")
	}
	if err := e.RunItemPart(context.Background(), dst[:3], 0, 0, 2, nil); err == nil {
		t.Fatal("short destination accepted")
	}
}

// TestRunItemPartBlockEquivalence: the lane body's bulk phase (chunks
// of blockCycles attempts through gamma.CycleBlock, written straight
// into the lane's slot) must be bitwise-identical to a pure gated
// CycleStep walk of the same substream. The scenario counts are chosen
// so per-part quotas land below one block (255), exactly on a block
// boundary (256), one past it (257), and across several full blocks
// plus a tail — the quota-boundary-mid-lane shapes.
func TestRunItemPartBlockEquivalence(t *testing.T) {
	for _, scenarios := range []int64{510, 512, 514, 1024, 1030, 2048} {
		cfg := substreamConfig()
		cfg.WorkItems = 1
		cfg.Scenarios = scenarios
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const parts = 2
		total := scenarios * int64(cfg.Sectors)

		got := make([]float32, total)
		for part := 0; part < parts; part++ {
			if err := e.RunItemPart(context.Background(), got, 0, part, parts, nil); err != nil {
				t.Fatalf("scenarios=%d part=%d: %v", scenarios, part, err)
			}
		}

		// Reference: the identical lane setup (same seek, same
		// decorrelation key, same per-sector reparameterization) driven
		// one gated pipeline walk at a time.
		want := make([]float32, total)
		limitMain := e.per[0]
		for part := 0; part < parts; part++ {
			quota, partLo := e.PartQuota(0, part, parts)
			if quota == 0 {
				continue
			}
			gen := gamma.NewGenerator(cfg.Transform, cfg.MTParams,
				gamma.MustFromVariance(cfg.variance(0)), e.seeds[0])
			e.seekStreams(gen, rng.SubstreamSeek(part))
			gen.DecorrelateStreams(rng.SubstreamKey(e.seeds[0], part))
			// e.cfg is the setDefaults-normalized config (LimitMaxFactor
			// defaulted to 8); the lane body reads the same.
			limitMax := e.cfg.LimitMaxFactor*quota + 1024
			base := e.offsets[0] + partLo
			for sector := 0; sector < cfg.Sectors; sector++ {
				gen.SetParams(gamma.MustFromVariance(cfg.variance(sector)))
				out := want[base+int64(sector)*limitMain:]
				var counter, trips int64
				for ; counter < quota && trips < limitMax; trips++ {
					if r := gen.CycleStep(); r.Valid {
						out[counter] = r.Gamma
						counter++
					}
				}
				if counter < quota {
					t.Fatalf("scenarios=%d part=%d: gated reference starved in sector %d", scenarios, part, sector)
				}
			}
		}
		if !bytes.Equal(floatBytes(got), floatBytes(want)) {
			t.Fatalf("scenarios=%d: lane block phase diverges from the gated reference", scenarios)
		}
	}
}

// TestRunItemPartCancellation: a cancelled context aborts between
// sectors with a wrapped error.
func TestRunItemPartCancellation(t *testing.T) {
	cfg := substreamConfig()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]float32, cfg.Scenarios*int64(cfg.Sectors))
	if err := e.RunItemPart(ctx, dst, 0, 1, 2, nil); err == nil {
		t.Fatal("cancelled part did not error")
	}
}

// TestRunItemPartQuotaSweep drives single lanes through every quota of
// quotaSweep and every transform: each lane's quota-bounded blocks must
// write the values of a gated CycleStep walk of the same substream into
// the lane's slot, spend the same cycles and accept the same candidates,
// stopping on the quota trip. Four parts per work-item put the lane
// quotas of the sweep side by side in one row, so a block writing past
// its slot would overwrite the next lane's values.
func TestRunItemPartQuotaSweep(t *testing.T) {
	const parts = 4
	for i, tr := range sweepTransforms {
		for _, quota := range quotaSweep {
			cfg := Config{
				Transform: tr, MTParams: mt.MT521Params,
				WorkItems: 1, Scenarios: parts * quota, Sectors: 2,
				SectorVariances: []float64{0.6, 2.5},
				Seed:            uint64(100*i) + uint64(quota),
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			total := cfg.Scenarios * int64(cfg.Sectors)
			got := make([]float32, total)
			want := make([]float32, total)
			for part := 0; part < parts; part++ {
				var st WorkItemStats
				if err := e.RunItemPart(context.Background(), got, 0, part, parts, &st); err != nil {
					t.Fatalf("%v quota=%d part=%d: %v", tr, quota, part, err)
				}
				lane, partLo := e.PartQuota(0, part, parts)
				if lane != quota {
					t.Fatalf("%v quota=%d part=%d: lane quota %d", tr, quota, part, lane)
				}
				gen := gamma.NewGenerator(cfg.Transform, cfg.MTParams,
					gamma.MustFromVariance(cfg.variance(0)), e.seeds[0])
				e.seekStreams(gen, rng.SubstreamSeek(part))
				gen.DecorrelateStreams(rng.SubstreamKey(e.seeds[0], part))
				for sector := 0; sector < cfg.Sectors; sector++ {
					gen.SetParams(gamma.MustFromVariance(cfg.variance(sector)))
					out := want[e.offsets[0]+partLo+int64(sector)*e.per[0]:]
					for counter := int64(0); counter < quota; {
						if r := gen.CycleStep(); r.Valid {
							out[counter] = r.Gamma
							counter++
						}
					}
				}
				if st.Cycles != gen.Cycles() || st.Accepted != gen.Accepted() {
					t.Fatalf("%v quota=%d part=%d: lane {cycles %d accepted %d}, gated walk {%d %d}",
						tr, quota, part, st.Cycles, st.Accepted, gen.Cycles(), gen.Accepted())
				}
			}
			if !bytes.Equal(floatBytes(got), floatBytes(want)) {
				t.Fatalf("%v quota=%d: lanes diverge from the gated walk", tr, quota)
			}
		}
	}
}
