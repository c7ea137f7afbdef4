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
//esthera:hotpath noalloc bce
func (p *Philox4x32) Block(dst []uint32) {
	i := 0
	for p.n > 0 && i < len(dst) {
		dst[i] = p.buf[4-p.n]
		p.n--
		i++
	}
	for ; i+4 <= len(dst); i += 4 {
		b := Round4x32(p.key, p.ctr)
		for w := 0; w < 4; w++ {
			p.ctr[w]++
			if p.ctr[w] != 0 {
				break
			}
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = b[0], b[1], b[2], b[3]
	}
	for ; i < len(dst); i++ {
		dst[i] = p.Uint32()
	}
}

// mul32 returns the 64-bit product of a and b split as (hi, lo) 32-bit
// halves.
func mul32(a, b uint32) (hi, lo uint32) {
	prod := uint64(a) * uint64(b)
	return uint32(prod >> 32), uint32(prod)
}
