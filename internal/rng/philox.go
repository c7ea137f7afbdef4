package rng

// Philox4x32 implements the Philox4x32-10 counter-based generator of
// Salmon et al. (SC'11, the Random123 family). Counter-based generators
// are the modern answer to the problem the paper solves with MTGP: every
// work-item can compute its own random numbers from (key, counter) with no
// shared state, no warm-up, and O(1) jump-ahead, which is ideal for
// many-core execution. Every sub-filter stream in the toolkit is a
// Philox stream.
type Philox4x32 struct {
	key [2]uint32
	ctr [4]uint32
	buf [4]uint32
	n   int // unread words remaining in buf
}

const (
	philoxM0 = 0xD2511F53
	philoxM1 = 0xCD9E8D57
	philoxW0 = 0x9E3779B9 // golden ratio
	philoxW1 = 0xBB67AE85 // sqrt(3)-1
)

// NewPhilox returns a Philox4x32-10 stream with the key derived from seed
// and the counter at zero.
func NewPhilox(seed uint64) *Philox4x32 {
	p := &Philox4x32{}
	p.Seed(seed)
	return p
}

// NewPhiloxStream returns a stream for (master, stream id): the id is
// folded into the key so that streams are independent by construction.
func NewPhiloxStream(master uint64, stream int) *Philox4x32 {
	p := &Philox4x32{}
	p.Seed(StreamSeed(master, stream))
	return p
}

// Seed sets the 64-bit key and resets the counter.
func (p *Philox4x32) Seed(seed uint64) {
	p.key[0] = uint32(seed)
	p.key[1] = uint32(seed >> 32)
	p.ctr = [4]uint32{}
	p.n = 0
}

// SetCounter positions the stream at an absolute 128-bit counter value,
// given as four 32-bit words (little-endian significance). This is the
// jump-ahead facility: disjoint counter ranges never overlap.
func (p *Philox4x32) SetCounter(c0, c1, c2, c3 uint32) {
	p.ctr = [4]uint32{c0, c1, c2, c3}
	p.n = 0
}

// Round4x32 applies the full 10-round Philox4x32 bijection to ctr under
// key and returns the four output words. It is exposed (rather than kept
// private) so the device kernels can generate numbers positionally.
//
//esthera:hotpath noalloc bce
func Round4x32(key [2]uint32, ctr [4]uint32) [4]uint32 {
	k0, k1 := key[0], key[1]
	// The counter words live in scalars so the ten rounds stay in
	// registers instead of round-tripping through an array temporary.
	c0, c1, c2, c3 := ctr[0], ctr[1], ctr[2], ctr[3]
	for round := 0; round < 10; round++ {
		hi0, lo0 := mul32(philoxM0, c0)
		hi1, lo1 := mul32(philoxM1, c2)
		c0, c1, c2, c3 = hi1^c1^k0, lo1, hi0^c3^k1, lo0
		k0 += philoxW0
		k1 += philoxW1
	}
	return [4]uint32{c0, c1, c2, c3}
}

// round4x32x4 writes Round4x32(key, ctr+b) to dst[4b:4b+4] for b = 0..3,
// where ctr+b adds b to the low word only (the caller guarantees it does
// not wrap). The four ten-round chains are independent, so running them
// in interleaved locals lets their multiplies overlap instead of
// waiting out one block's latency chain before starting the next.
//
//esthera:hotpath noalloc bce
func round4x32x4(key [2]uint32, ctr [4]uint32, dst []uint32) {
	k0, k1 := key[0], key[1]
	a0, a1, a2, a3 := ctr[0], ctr[1], ctr[2], ctr[3]
	b0, b1, b2, b3 := a0+1, a1, a2, a3
	c0, c1, c2, c3 := a0+2, a1, a2, a3
	d0, d1, d2, d3 := a0+3, a1, a2, a3
	for round := 0; round < 10; round++ {
		ah0, al0 := mul32(philoxM0, a0)
		ah1, al1 := mul32(philoxM1, a2)
		bh0, bl0 := mul32(philoxM0, b0)
		bh1, bl1 := mul32(philoxM1, b2)
		ch0, cl0 := mul32(philoxM0, c0)
		ch1, cl1 := mul32(philoxM1, c2)
		dh0, dl0 := mul32(philoxM0, d0)
		dh1, dl1 := mul32(philoxM1, d2)
		a0, a1, a2, a3 = ah1^a1^k0, al1, ah0^a3^k1, al0
		b0, b1, b2, b3 = bh1^b1^k0, bl1, bh0^b3^k1, bl0
		c0, c1, c2, c3 = ch1^c1^k0, cl1, ch0^c3^k1, cl0
		d0, d1, d2, d3 = dh1^d1^k0, dl1, dh0^d3^k1, dl0
		k0 += philoxW0
		k1 += philoxW1
	}
	dst = dst[:16:16]
	dst[0], dst[1], dst[2], dst[3] = a0, a1, a2, a3
	dst[4], dst[5], dst[6], dst[7] = b0, b1, b2, b3
	dst[8], dst[9], dst[10], dst[11] = c0, c1, c2, c3
	dst[12], dst[13], dst[14], dst[15] = d0, d1, d2, d3
}

// refill produces the next 4-word block and advances the counter.
//
//esthera:hotpath noalloc bce
func (p *Philox4x32) refill() {
	p.buf = Round4x32(p.key, p.ctr)
	// 128-bit increment.
	for i := 0; i < 4; i++ {
		p.ctr[i]++
		if p.ctr[i] != 0 {
			break
		}
	}
	p.n = 4
}

// Uint32 returns the next 32-bit output.
//
//esthera:hotpath noalloc bce
func (p *Philox4x32) Uint32() uint32 {
	if p.n == 0 {
		p.refill()
	}
	v := p.buf[4-p.n]
	p.n--
	return v
}

// Uint64 packs two 32-bit outputs, satisfying Source.
//
//esthera:hotpath noalloc bce
func (p *Philox4x32) Uint64() uint64 {
	hi := uint64(p.Uint32())
	lo := uint64(p.Uint32())
	return hi<<32 | lo
}

// Block fills dst with consecutive outputs (a Buffer's block fill). The
// stream is identical to len(dst) Uint32 calls: buffered leftovers are
// drained first, whole 4-word blocks are then generated straight into
// dst (skipping the internal buffer and its per-word bookkeeping), and
// any tail goes through Uint32 so the leftover state matches.
//
// Blocks are generated four at a time (round4x32x4) while a 16-word
// span remains and the low counter word cannot wrap within it; near a
// wrap, where the increment carries into the higher words, and for the
// last blocks, it falls back to one block per iteration.
//
//esthera:hotpath noalloc bce
func (p *Philox4x32) Block(dst []uint32) {
	for p.n > 0 && len(dst) > 0 {
		dst[0] = p.buf[4-p.n]
		p.n--
		dst = dst[1:]
	}
	for len(dst) >= 16 && p.ctr[0] < 0xFFFFFFFC {
		round4x32x4(p.key, p.ctr, dst[:16:16])
		p.ctr[0] += 4
		dst = dst[16:]
	}
	for len(dst) >= 4 {
		b := Round4x32(p.key, p.ctr)
		for w := 0; w < 4; w++ {
			p.ctr[w]++
			if p.ctr[w] != 0 {
				break
			}
		}
		dst[0], dst[1], dst[2], dst[3] = b[0], b[1], b[2], b[3]
		dst = dst[4:]
	}
	for i := range dst {
		dst[i] = p.Uint32()
	}
}

// mul32 returns the 64-bit product of a and b split as (hi, lo) 32-bit
// halves.
func mul32(a, b uint32) (hi, lo uint32) {
	prod := uint64(a) * uint64(b)
	return uint32(prod >> 32), uint32(prod)
}
