package rng

// Skip advances the stream by n 32-bit words, exactly as if n words had
// been drawn and discarded, in O(1): buffered words are drained, whole
// 4-word blocks advance the 128-bit counter directly, and a partial
// block costs one bijection evaluation. The lazy Buffer uses it at
// Refill to step past the unconsumed tail of the previous block without
// generating it.
func (p *Philox4x32) Skip(n int) {
	if n <= 0 {
		return
	}
	if p.n > 0 {
		take := min(p.n, n)
		p.n -= take
		n -= take
		if n == 0 {
			return
		}
	}
	p.advance(uint64(n / 4))
	if rem := n % 4; rem > 0 {
		p.refill()
		p.n = 4 - rem
	}
}

// advance adds blocks to the 128-bit counter (the jump-ahead Philox is
// built for: position is a pure function of the counter).
func (p *Philox4x32) advance(blocks uint64) {
	if blocks == 0 {
		return
	}
	lo := uint64(p.ctr[0]) | uint64(p.ctr[1])<<32
	hi := uint64(p.ctr[2]) | uint64(p.ctr[3])<<32
	olo := lo
	lo += blocks
	if lo < olo {
		hi++
	}
	p.ctr[0], p.ctr[1] = uint32(lo), uint32(lo>>32)
	p.ctr[2], p.ctr[3] = uint32(hi), uint32(hi>>32)
}
