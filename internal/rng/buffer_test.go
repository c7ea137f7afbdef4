package rng

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// wordBuffer is the Buffer as it was before blocks became stream
// positions: it holds the block's words, materialized from the fallback
// on first read (in 64-word chunks for scalar draws) and skipped past
// at the next Refill when unread. It is kept as the reference the
// positional Buffer must match word for word, position for position.
type wordBuffer struct {
	bits     []uint32
	pos      int // next unread word
	gen      int // words of bits materialized since the last Refill
	fallback *Philox4x32
}

const wordBufferChunk = 64

func newWordBuffer(capacity int, fallback *Philox4x32) *wordBuffer {
	b := &wordBuffer{bits: make([]uint32, capacity), fallback: fallback}
	b.pos = len(b.bits)
	b.gen = len(b.bits)
	return b
}

func (b *wordBuffer) Refill() int {
	b.fallback.Skip(len(b.bits) - b.gen)
	b.pos, b.gen = 0, 0
	return len(b.bits)
}

func (b *wordBuffer) Remaining() int { return len(b.bits) - b.pos }

func (b *wordBuffer) materializeTo(target int) {
	if target > len(b.bits) {
		target = len(b.bits)
	}
	if target <= b.gen {
		return
	}
	b.fallback.Block(b.bits[b.gen:target])
	b.gen = target
}

func (b *wordBuffer) Uint64() uint64 {
	if b.pos+2 <= len(b.bits) {
		if b.pos+2 > b.gen {
			b.materializeTo(b.pos + wordBufferChunk)
		}
		hi := uint64(b.bits[b.pos])
		lo := uint64(b.bits[b.pos+1])
		b.pos += 2
		return hi<<32 | lo
	}
	b.materializeTo(len(b.bits))
	return b.fallback.Uint64()
}

func (b *wordBuffer) Seed(seed uint64) {
	b.fallback.Seed(seed)
	b.pos = len(b.bits)
	b.gen = len(b.bits)
}

func (b *wordBuffer) SaveState() State {
	b.materializeTo(len(b.bits))
	w := make([]uint32, 0, len(b.bits)+1)
	w = append(w, uint32(b.pos))
	w = append(w, b.bits...)
	return State{Kind: "buffer", Words: w, Sub: []State{b.fallback.SaveState()}}
}

func (b *wordBuffer) RestoreState(st State) error {
	if len(st.Words) != len(b.bits)+1 || len(st.Sub) != 1 {
		return fmt.Errorf("word buffer: state shape %d words, %d subs", len(st.Words), len(st.Sub))
	}
	if err := b.fallback.RestoreState(st.Sub[0]); err != nil {
		return err
	}
	copy(b.bits, st.Words[1:])
	b.pos = int(st.Words[0])
	b.gen = len(b.bits)
	return nil
}

// sameRandState compares two saved Rand-over-buffer states: the spare
// cache, the read position, the block words (unless the block is dead:
// after Seed and before the next Refill the reference keeps stale
// words), and the fallback's key, counter, unread count, unread buffered
// words and next draws. Buffered words the unread count marks dead are
// not compared.
func sameRandState(t *testing.T, ctx string, want, got State, deadBlock bool) {
	t.Helper()
	if fmt.Sprint(want.Words) != fmt.Sprint(got.Words) {
		t.Fatalf("%s: rand words %v, want %v", ctx, got.Words, want.Words)
	}
	wb, gb := want.Sub[0], got.Sub[0]
	if wb.Words[0] != gb.Words[0] {
		t.Fatalf("%s: saved pos %d, want %d", ctx, gb.Words[0], wb.Words[0])
	}
	if !deadBlock {
		for i := range wb.Words {
			if wb.Words[i] != gb.Words[i] {
				t.Fatalf("%s: saved block word %d = %x, want %x", ctx, i-1, gb.Words[i], wb.Words[i])
			}
		}
	}
	wp, gp := wb.Sub[0].Words, gb.Sub[0].Words
	n := int(wp[10])
	if fmt.Sprint(wp[:6], wp[10-n:]) != fmt.Sprint(gp[:6], gp[10-n:]) || gp[10] != wp[10] {
		t.Fatalf("%s: fallback state %v, want %v", ctx, gp, wp)
	}
	var pw, pg Philox4x32
	if err := pw.RestoreState(wb.Sub[0]); err != nil {
		t.Fatal(err)
	}
	if err := pg.RestoreState(gb.Sub[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if a, b := pg.Uint64(), pw.Uint64(); a != b {
			t.Fatalf("%s: fallback draw %d = %x, want %x", ctx, i, a, b)
		}
	}
}

// expandBufferState returns a compact buffer state in the verbatim form
// a word-holding buffer saves: the read position, then the block's size
// words generated from its start, with the end as the fallback. A
// verbatim state is returned as it is.
func expandBufferState(t *testing.T, st State, size int) State {
	t.Helper()
	if len(st.Sub) != 2 {
		return st
	}
	var start Philox4x32
	if err := start.RestoreState(st.Sub[0]); err != nil {
		t.Fatal(err)
	}
	w := make([]uint32, 1+size)
	w[0] = st.Words[0]
	start.Block(w[1:])
	return State{Kind: "buffer", Words: w, Sub: []State{st.Sub[1]}}
}

// expandRandState applies expandBufferState to a Rand-over-buffer state.
func expandRandState(t *testing.T, st State, size int) State {
	t.Helper()
	out := st.Clone()
	out.Sub[0] = expandBufferState(t, out.Sub[0], size)
	return out
}

// saveKind names the point a buffer state was saved at: before the
// first Refill, from a block restored verbatim, mid-block, at the
// block's end, or after an overflow draw. It also checks the state's
// form: verbatim for a held block, compact otherwise.
func saveKind(t *testing.T, ctx string, b *Buffer, st State) string {
	t.Helper()
	if b.held != nil {
		if len(st.Words) != b.size+1 || len(st.Sub) != 1 {
			t.Fatalf("%s: held block saved as %d words and %d sub-states, want the verbatim form", ctx, len(st.Words), len(st.Sub))
		}
		return "verbatim"
	}
	if len(st.Words) != 1 || len(st.Sub) != 2 {
		t.Fatalf("%s: block saved as %d words and %d sub-states, want the compact form", ctx, len(st.Words), len(st.Sub))
	}
	var start, end Philox4x32
	if err := start.RestoreState(st.Sub[0]); err != nil {
		t.Fatal(err)
	}
	if err := end.RestoreState(st.Sub[1]); err != nil {
		t.Fatal(err)
	}
	start.Skip(b.size)
	switch past, _ := offset(&start, &end); {
	case !b.refilled:
		return "before the first Refill"
	case past > 0:
		return "after an overflow draw"
	case b.pos == b.size:
		return "at the block's end"
	default:
		return "mid-block"
	}
}

// sameRestoredDraws restores a saved state into a fresh Buffer, which
// must save that state again word for word, and the reference's own
// state into a fresh word buffer, then requires the same Remaining,
// scalar and bulk draws through and past the rest of the block, and
// scalar draws after a Refill.
func sameRestoredDraws(t *testing.T, ctx string, st State, ref *Rand, size int) {
	t.Helper()
	got := New(NewBuffer(size, NewPhilox(0)))
	want := New(newWordBuffer(size, NewPhilox(0)))
	if err := got.RestoreState(st.Clone()); err != nil {
		t.Fatalf("%s: restoring the saved state: %v", ctx, err)
	}
	if again := got.SaveState(); fmt.Sprint(again) != fmt.Sprint(st) {
		t.Fatalf("%s: restored buffer saves %v, want the state it was restored from, %v", ctx, again, st)
	}
	if err := want.RestoreState(ref.SaveState()); err != nil {
		t.Fatal(err)
	}
	remaining := func(when string) {
		if a, b := got.src.(*Buffer).Remaining(), want.src.(*wordBuffer).Remaining(); a != b {
			t.Fatalf("%s: restored Remaining %s = %d, want %d", ctx, when, a, b)
		}
	}
	remaining("at restore")
	for k := 0; k < 3; k++ {
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("%s: restored Uint64 %d = %x, want %x", ctx, k, a, b)
		}
	}
	a, b := make([]float64, size/4+3), make([]float64, size/4+3)
	got.FillNormals(a)
	want.FillNormals(b)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: restored normal %d = %v, want %v", ctx, i, a[i], b[i])
		}
	}
	remaining("after draws")
	got.src.(*Buffer).Refill()
	want.src.(*wordBuffer).Refill()
	for k := 0; k < size/2+2; k++ {
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("%s: restored Uint64 %d after Refill = %x, want %x", ctx, k, a, b)
		}
	}
	remaining("after Refill")
}

// TestBufferMatchesWordBuffer drives the positional Buffer and the
// word-holding reference through the same random operation sequences —
// refills, Uint64 draws across the block end, odd-length bulk normal
// and uniform fills, saves, restores (from either side's state)
// followed by draws, and reseeds — and requires the same words and
// remaining counts throughout. Every save is compared twice: expanded
// to the verbatim form, it must be the reference's saved state; and
// restored into a fresh Buffer, it must be saved again word for word
// and draw what the reference draws from its own state. The saves cover each point a state can be taken
// at: before the first Refill, mid-block, at the block's end, after an
// overflow draw, and from a block restored verbatim.
func TestBufferMatchesWordBuffer(t *testing.T) {
	kinds := map[string]int{}
	for seed := uint64(1); seed <= 300; seed++ {
		ops := rand.New(rand.NewPCG(seed, 7))
		size := 1 + ops.IntN(48)
		if ops.IntN(4) == 0 { // several bulk chunks per fill
			size = 2*bufferChunk + ops.IntN(3*bufferChunk)
		}
		want := New(newWordBuffer(size, NewPhiloxStream(seed, 3)))
		got := New(NewBuffer(size, NewPhiloxStream(seed, 3)))
		// Before the first Refill, and after Seed, no block is
		// readable: the reference holds zeros or stale words, and a
		// saved read-out block the words before the fallback.
		deadBlock := true
		for step := 0; step < 80; step++ {
			ctx := fmt.Sprintf("seed %d size %d step %d", seed, size, step)
			switch ops.IntN(8) {
			case 0:
				if a, b := got.src.(*Buffer).Refill(), want.src.(*wordBuffer).Refill(); a != b {
					t.Fatalf("%s: Refill = %d, want %d", ctx, a, b)
				}
				deadBlock = false
			case 1:
				for k := 1 + ops.IntN(8); k > 0; k-- {
					if a, b := got.Uint64(), want.Uint64(); a != b {
						t.Fatalf("%s: Uint64 = %x, want %x", ctx, a, b)
					}
				}
			case 2:
				n := ops.IntN(size/2 + 8)
				a, b := make([]float64, n), make([]float64, n)
				got.FillNormals(a)
				want.FillNormals(b)
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("%s: normal %d of %d = %v, want %v", ctx, i, n, a[i], b[i])
					}
				}
			case 3:
				n := ops.IntN(size/2 + 8)
				a, b := make([]float64, n), make([]float64, n)
				got.FillUniforms(a)
				want.FillUniforms(b)
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("%s: uniform %d of %d = %v, want %v", ctx, i, n, a[i], b[i])
					}
				}
			case 4, 5:
				st := got.SaveState()
				kind := saveKind(t, ctx, got.src.(*Buffer), st.Sub[0])
				kinds[kind]++
				ctx += " (" + kind + ")"
				sameRandState(t, ctx, want.SaveState(), expandRandState(t, st, size), deadBlock)
				sameRestoredDraws(t, ctx, st, want, size)
			case 6:
				st := want.SaveState()
				if ops.IntN(2) == 0 {
					st = got.SaveState()
				}
				want = New(newWordBuffer(size, NewPhilox(0)))
				got = New(NewBuffer(size, NewPhilox(0)))
				if err := want.RestoreState(expandRandState(t, st, size)); err != nil {
					t.Fatal(err)
				}
				if err := got.RestoreState(st.Clone()); err != nil {
					t.Fatal(err)
				}
				deadBlock = false
			case 7:
				s := ops.Uint64()
				got.Seed(s)
				want.Seed(s)
				deadBlock = true
			}
			if a, b := got.src.(*Buffer).Remaining(), want.src.(*wordBuffer).Remaining(); a != b {
				t.Fatalf("%s: Remaining = %d, want %d", ctx, a, b)
			}
		}
		sameRandState(t, fmt.Sprintf("seed %d end", seed), want.SaveState(), expandRandState(t, got.SaveState(), size), deadBlock)
	}
	for _, kind := range []string{"before the first Refill", "mid-block", "at the block's end", "after an overflow draw", "verbatim"} {
		if kinds[kind] == 0 {
			t.Errorf("no state saved %s", kind)
		}
	}
	t.Logf("saves by point: %v", kinds)
}

func TestBufferServesBlockThenFallsBack(t *testing.T) {
	// A buffer of 6 words serves 3 Uint64s from the block, then falls
	// back to the live stream for the rest — and the combined sequence
	// must equal the plain stream (Refill consumes the same words the
	// direct draws would).
	direct := NewPhilox(42)
	want := make([]uint64, 6)
	for i := range want {
		want[i] = direct.Uint64()
	}

	buf := NewBuffer(6, NewPhilox(42))
	if buf.Remaining() != 0 {
		t.Fatalf("fresh buffer remaining = %d, want 0 (starts exhausted)", buf.Remaining())
	}
	if n := buf.Refill(); n != 6 {
		t.Fatalf("Refill generated %d words, want 6", n)
	}
	if buf.Remaining() != 6 {
		t.Fatalf("remaining after refill = %d", buf.Remaining())
	}
	for i := 0; i < 6; i++ {
		if got := buf.Uint64(); got != want[i] {
			t.Fatalf("draw %d: %x, want %x", i, got, want[i])
		}
		wantRem := 6 - 2*(i+1)
		if wantRem < 0 {
			wantRem = 0
		}
		if i < 3 && buf.Remaining() != wantRem {
			t.Fatalf("remaining after draw %d = %d, want %d", i, buf.Remaining(), wantRem)
		}
	}
}

func TestBufferFallbackBeforeRefill(t *testing.T) {
	// Without Refill, every draw hits the fallback stream directly.
	buf := NewBuffer(8, NewPhilox(7))
	direct := NewPhilox(7)
	for i := 0; i < 4; i++ {
		if buf.Uint64() != direct.Uint64() {
			t.Fatalf("pre-refill draw %d diverged from fallback", i)
		}
	}
}

func TestBufferOddRemainderUsesFallback(t *testing.T) {
	// A 5-word block serves two Uint64s; the fifth word is stranded and
	// the third draw must come from the live stream.
	buf := NewBuffer(5, NewPhilox(9))
	buf.Refill()
	buf.Uint64()
	buf.Uint64()
	if buf.Remaining() != 1 {
		t.Fatalf("remaining = %d, want 1", buf.Remaining())
	}
	direct := NewPhilox(9)
	var skip [5]uint32
	direct.Block(skip[:]) // the refilled block
	want := direct.Uint64()
	if got := buf.Uint64(); got != want {
		t.Fatalf("stranded-word draw = %x, want fallback %x", got, want)
	}
}

func TestBufferSeedResets(t *testing.T) {
	buf := NewBuffer(4, NewPhilox(1))
	buf.Refill()
	buf.Uint64()
	buf.Seed(99)
	if buf.Remaining() != 0 {
		t.Fatal("Seed must discard the buffered block")
	}
	if buf.Uint64() != NewPhilox(99).Uint64() {
		t.Fatal("Seed did not reset the fallback stream")
	}
}

func TestBufferDeterministicRounds(t *testing.T) {
	// Two buffers with identical seeds and refill schedules produce
	// identical streams — the property the rand kernel relies on.
	mk := func() *Buffer { return NewBuffer(16, NewPhiloxStream(5, 3)) }
	a, b := mk(), mk()
	for round := 0; round < 5; round++ {
		a.Refill()
		b.Refill()
		for i := 0; i < 10; i++ { // 10 > 8: exercises overflow too
			if a.Uint64() != b.Uint64() {
				t.Fatalf("round %d draw %d diverged", round, i)
			}
		}
	}
}

func TestRandAuxiliaryMethods(t *testing.T) {
	r := New(NewPhilox(3))
	if v := r.Uint32(); v == r.Uint32() {
		// Two consecutive 32-bit draws colliding is ~2^-32; treat as failure.
		t.Fatal("consecutive Uint32 draws identical")
	}
	// Normal scales and shifts.
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Normal(5, 2)
	}
	if m := sum / n; m < 4.9 || m > 5.1 {
		t.Fatalf("Normal(5,2) mean %v", m)
	}
}
