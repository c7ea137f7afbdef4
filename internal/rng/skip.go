package rng

import "math/bits"

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

// rewind moves the stream back by n words, the inverse of Skip: the
// counter steps back over whole blocks (wrapping below zero as it wraps
// past its top), and a partial block costs one bijection evaluation.
func (p *Philox4x32) rewind(n int) {
	back := uint64(n) + uint64(p.n) // words back from the counter's block boundary
	blocks := (back + 3) / 4
	lo, hi := p.counter()
	lo, borrow := bits.Sub64(lo, blocks, 0)
	p.setCounter(lo, hi-borrow)
	p.n = 0
	p.Skip(int(4*blocks - back))
}

// advance adds blocks to the 128-bit counter (the jump-ahead Philox is
// built for: position is a pure function of the counter).
func (p *Philox4x32) advance(blocks uint64) {
	lo, hi := p.counter()
	lo, carry := bits.Add64(lo, blocks, 0)
	p.setCounter(lo, hi+carry)
}

// counter returns the 128-bit counter as low and high halves.
func (p *Philox4x32) counter() (lo, hi uint64) {
	return uint64(p.ctr[0]) | uint64(p.ctr[1])<<32, uint64(p.ctr[2]) | uint64(p.ctr[3])<<32
}

func (p *Philox4x32) setCounter(lo, hi uint64) {
	p.ctr = [4]uint32{uint32(lo), uint32(lo >> 32), uint32(hi), uint32(hi >> 32)}
}

// offset returns q's stream position minus p's, in words, for two
// streams of one key. A position is the counter times four less the
// unread buffered words, so it wraps at 2^130 words; ok is false when
// the two lie 2^62 words or more apart either way.
func offset(p, q *Philox4x32) (d int64, ok bool) {
	plo, phi := p.counter()
	qlo, qhi := q.counter()
	lo, borrow := bits.Sub64(qlo, plo, 0)
	hi, _ := bits.Sub64(qhi, phi, borrow)
	// hi:lo is the block difference as a signed 128-bit number.
	blocks := int64(lo)
	if hi != uint64(blocks>>63) || blocks >= 1<<60 || blocks <= -(1<<60) {
		return 0, false
	}
	return 4*blocks - int64(q.n) + int64(p.n), true
}
