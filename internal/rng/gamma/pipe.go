package gamma

// This file is the in-process consumer side of the block compute path:
// the "pipes" pattern of kernel-to-kernel hand-off. A consumer that
// needs one generator's accepted outputs — the CreditRisk+ sector-
// variable loop, a streaming statistic — drinks them straight out of
// the candidate block the generator just produced, without the caller
// materializing a Scenarios-length scenario array first. The block
// never leaves the generator's scratch; only the read cursor moves.

// ConsumeBlock runs up to `attempts` pipeline iterations as one
// CycleBlock batch and hands the accepted outputs to consume as a slice
// view into the scratch block — valid only until the generator's next
// call, which is exactly the pipe discipline: the consumer drains the
// block (or copies what it keeps) before the producer refills it. It
// returns the accepted count and invokes consume only when that count
// is positive. Values, order and generator counters are identical to
// the equivalent CycleStep sequence (see CycleBlock).
func (g *Generator) ConsumeBlock(attempts int, s *BlockScratch, consume func([]float32)) int {
	n := g.CycleBlock(s.out[:attempts], attempts, s)
	if n > 0 {
		consume(s.out[:n])
	}
	return n
}

// Pipe adapts block-batched generation to a per-value Next() consumer
// while keeping the consumed value sequence, the generator's cycle/
// accept counters and the rejection-trip histogram bitwise-identical to
// calling Generator.Next() the same number of times. total is the exact
// number of values the consumer will draw; every one of them comes out
// of a ConsumeBlock of min(blockAttempts, remaining) attempts, where
// remaining counts the values not yet produced.
//
// Why that discipline is exact: a block of k ≤ remaining attempts yields
// at most k outputs, so it can never produce a value the consumer will
// not draw. remaining can reach zero only when every attempt of a block
// accepts, so the block's last cycle *is* the accepting cycle of the
// final value, just as on the gated path. The generator therefore stops
// on the same cycle, with the same counters and the same trip records,
// as a pure Next() consumer.
type Pipe struct {
	g         *Generator
	s         *BlockScratch
	attempts  int
	pos, n    int   // read cursor and fill level of the current block
	remaining int64 // values not yet produced into the block
}

// NewPipe builds a pipe serving exactly total values from g in blocks
// of up to blockAttempts pipeline attempts. The scratch is owned by the
// pipe for its lifetime; Cap() must be ≥ blockAttempts.
func NewPipe(g *Generator, total int64, blockAttempts int, s *BlockScratch) *Pipe {
	if blockAttempts < 1 || blockAttempts > s.Cap() {
		panic("gamma: pipe block size outside scratch capacity")
	}
	return &Pipe{g: g, s: s, attempts: blockAttempts, remaining: total}
}

// Next returns the next accepted gamma value. Drawing more than the
// constructed total falls through to the gated path and stays correct,
// but forfeits the end-state equivalence guarantee for the surplus.
func (p *Pipe) Next() float32 {
	if p.pos < p.n {
		v := p.s.out[p.pos]
		p.pos++
		return v
	}
	for p.remaining > 0 {
		n := p.g.ConsumeBlock(int(min(int64(p.attempts), p.remaining)), p.s, func([]float32) {})
		if n > 0 {
			p.remaining -= int64(n)
			p.n, p.pos = n, 1
			return p.s.out[0]
		}
	}
	return p.g.Next()
}
