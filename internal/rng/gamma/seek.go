package gamma

// seek.go — stream seek over the generator's four gated twisters.
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
// as the reference the jump is checked against. No binary calls it: it
// is test support for the jump-equivalence tests here and the gated
// oracle in internal/core, which applies StreamOffset with it.
func (g *Generator) AdvanceStreams(n uint64) {
	for i := uint64(0); i < n; i++ {
		g.mt0a.Advance()
		g.mt0b.Advance()
		g.mt1.Advance()
		g.mt2.Advance()
	}
}
