package rng

// Block-draw API: fill whole spans of deviates per call instead of one
// façade call per draw. These are the RNG half of the vectorized kernel
// path (model.VecModel consumes them): the draw ORDER is bit-for-bit the
// order the scalar façade produces — FillNormals(dst) is exactly
// len(dst) sequential NormFloat64 calls, including the Box-Muller spare
// handoff across calls — so switching a kernel between per-lane and
// per-span sampling cannot move a single stream position.

const inv53 = 1.0 / (1 << 53)

// FillNormals fills dst with standard-normal deviates, bit-identical to
// len(dst) sequential NormFloat64 calls (same draws, same spare cache
// state afterward). When the source is a block Buffer, the raw words are
// taken from the block in bulk, skipping per-draw façade dispatch.
//
//esthera:hotpath noalloc bce
func (r *Rand) FillNormals(dst []float64) {
	i := 0
	if r.haveSpare && i < len(dst) {
		dst[i] = r.spare
		r.haveSpare = false
		i++
	}
	if b, ok := r.src.(*Buffer); ok {
		i = fillNormalsBuffered(dst, i, b)
	}
	for ; i+2 <= len(dst); i += 2 {
		dst[i], dst[i+1] = BoxMuller(r.OpenFloat64(), r.OpenFloat64())
	}
	if i < len(dst) {
		z0, z1 := BoxMuller(r.OpenFloat64(), r.OpenFloat64())
		dst[i] = z0
		r.spare, r.haveSpare = z1, true
	}
}

// fillNormalsBuffered draws as many whole Box-Muller pairs as fit in the
// buffered block directly from its words (4 words per pair, identical
// packing and 53-bit open-interval mapping as OpenFloat64 over Uint64),
// a stack chunk at a time. It returns the next unfilled index; any
// remainder falls back to the scalar path.
//
//esthera:hotpath noalloc bce
func fillNormalsBuffered(dst []float64, i int, b *Buffer) int {
	n := 4 * ((len(dst) - i) / 2)
	if avail := b.Remaining(); n > avail {
		n = avail &^ 3
	}
	var chunk [bufferChunk]uint32
	for n > 0 {
		w := b.take(chunk[:], n)
		n -= len(w)
		for j := 0; j+4 <= len(w); j += 4 {
			u1 := (float64((uint64(w[j])<<32|uint64(w[j+1]))>>11) + 0.5) * inv53
			u2 := (float64((uint64(w[j+2])<<32|uint64(w[j+3]))>>11) + 0.5) * inv53
			dst[i], dst[i+1] = BoxMuller(u1, u2)
			i += 2
		}
	}
	return i
}

// FillUniforms fills dst with uniforms in [0,1), bit-identical to
// len(dst) sequential Float64 calls.
//
//esthera:hotpath noalloc bce
func (r *Rand) FillUniforms(dst []float64) {
	i := 0
	if b, ok := r.src.(*Buffer); ok {
		n := 2 * len(dst)
		if avail := b.Remaining(); n > avail {
			n = avail &^ 1
		}
		var chunk [bufferChunk]uint32
		for n > 0 {
			w := b.take(chunk[:], n)
			n -= len(w)
			for j := 0; j+2 <= len(w); j += 2 {
				dst[i] = float64((uint64(w[j])<<32|uint64(w[j+1]))>>11) * inv53
				i++
			}
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = r.Float64()
	}
}

// Normals returns a reusable scratch slice of n standard-normal
// deviates. The slice is owned by the Rand and overwritten by the next
// Normals call; Rand is single-goroutine by contract, so per-sub-filter
// kernels can call this every round with zero steady-state allocation.
//
//esthera:hotpath noalloc bce
func (r *Rand) Normals(n int) []float64 {
	if cap(r.normScratch) < n {
		//esthera:allow noalloc amortized scratch growth; steady-state calls reuse the buffer
		r.normScratch = make([]float64, n)
	}
	s := r.normScratch[:n]
	r.FillNormals(s)
	return s
}
