package gamma

// substream.go — stream seek over the generator's four gated twisters.
// Because the engine consumes the twisters only through the gated
// enables of Listing 2, the natural checkpoint coordinate for a whole
// generator is the quadruple of per-stream word offsets; and because all
// four streams are F2-linear, the whole generator can be fast-forwarded
// in O(log n) (mt.Core.Jump).

// JumpStreams advances all four gated twister streams by n state words
// each in O(log n), as if each stream had been consumed n more times.
// Note this seeks the *uniform word* streams, not the gamma output: the
// number of words a gamma variate consumes is data-dependent (rejection
// trips), which is exactly why checkpoint/resume is defined at the word
// level where positions are exact.
func (g *Generator) JumpStreams(n uint64) {
	g.mt0a.Jump(n)
	g.mt0b.Jump(n)
	g.mt1.Jump(n)
	g.mt2.Jump(n)
}

// AdvanceStreams is the sequential O(n) equivalent of JumpStreams, kept
// as the reference the jump is checked against.
func (g *Generator) AdvanceStreams(n uint64) {
	for i := uint64(0); i < n; i++ {
		g.mt0a.Advance()
		g.mt0b.Advance()
		g.mt1.Advance()
		g.mt2.Advance()
	}
}

// DecorrelateStreams attaches ThundeRiNG-style per-position output
// scramblers to the four twister streams, with per-stream keys derived
// from key by SplitMix64 separation (key 0 detaches all four). Reseed
// detaches them implicitly, so pooled generators stay canonical.
func (g *Generator) DecorrelateStreams(key uint64) {
	if key == 0 {
		g.mt0a.Decorrelate(0)
		g.mt0b.Decorrelate(0)
		g.mt1.Decorrelate(0)
		g.mt2.Decorrelate(0)
		return
	}
	keys := streamKeys(key)
	g.mt0a.Decorrelate(keys[0])
	g.mt0b.Decorrelate(keys[1])
	g.mt1.Decorrelate(keys[2])
	g.mt2.Decorrelate(keys[3])
}

// streamKeys derives four nonzero per-stream scramble keys from one
// master key, mirroring the seed separation of NewGenerator.
func streamKeys(key uint64) [4]uint64 {
	var out [4]uint64
	z := key
	for i := range out {
		z += 0x9E3779B97F4A7C15
		k := z
		k = (k ^ k>>30) * 0xBF58476D1CE4E5B9
		k = (k ^ k>>27) * 0x94D049BB133111EB
		k ^= k >> 31
		if k == 0 {
			k = 0x5DEECE66D
		}
		out[i] = k
	}
	return out
}

// StreamOffsets reports the word offsets of the four twister streams
// since their last reseed — the generator-level checkpoint tuple.
func (g *Generator) StreamOffsets() [4]uint64 {
	return [4]uint64{g.mt0a.Offset(), g.mt0b.Offset(), g.mt1.Offset(), g.mt2.Offset()}
}
