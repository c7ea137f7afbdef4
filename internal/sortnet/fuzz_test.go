package sortnet

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
	"testing"

	"esthera/internal/device"
)

// FuzzBitonicSort checks the kernels' bitonic network (Net) against the
// stdlib sort for arbitrary inputs, and its composite-key path against
// the (key, index) network. Each input is read twice: one key per byte
// (small integers with ties, negatives and infinities), and one key per
// eight bytes of raw float64 bits, NaN dropped as SortDescending
// documents, which yields distinct keys that differ only in their low
// bits.
func FuzzBitonicSort(f *testing.F) {
	f.Add([]byte{5, 3, 9, 1})
	f.Add([]byte{0})
	f.Add([]byte{255, 255, 0, 0, 128})
	x := 0.5
	f.Add(floatBytes(x, math.Nextafter(x, 1), 2, -1))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 1024 {
			t.Skip()
		}
		ks := make([]float64, len(raw))
		for i, b := range raw {
			switch {
			case b == 255:
				ks[i] = math.Inf(1)
			case b == 254:
				ks[i] = math.Inf(-1)
			default:
				ks[i] = float64(b) - 128
			}
		}
		checkSorted(t, ks)
		var bitsKeys []float64
		for i := 0; i+8 <= len(raw); i += 8 {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])); !math.IsNaN(v) {
				bitsKeys = append(bitsKeys, v)
			}
		}
		checkSorted(t, bitsKeys)
	})
}

// floatBytes encodes keys as the raw-bits fuzz input reads them.
func floatBytes(keys ...float64) []byte {
	out := make([]byte, 0, 8*len(keys))
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(k))
	}
	return out
}

// checkSorted sorts ks with its index array and compares the result with
// the stdlib sort, then compares the composite path with the (key,
// index) network on the longest power-of-two prefix of ks.
func checkSorted(t *testing.T, ks []float64) {
	t.Helper()
	if len(ks) == 0 {
		return
	}
	got := append([]float64(nil), ks...)
	idx := make([]int, len(ks))
	for i := range idx {
		idx[i] = i
	}
	NewNet().SortDescending(device.Serial{N: len(ks)}, got, idx)

	want := append([]float64(nil), ks...)
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: %v vs %v (input %v)", i, got[i], want[i], ks)
		}
		// The index array must map back to an equal key.
		if ks[idx[i]] != got[i] {
			t.Fatalf("index array broken at %d", i)
		}
	}
	if p := 1 << (bits.Len(uint(len(ks))) - 1); p >= 2 {
		compareComposite(t, ks[:p])
	}
}

// compareComposite sorts a power-of-two ks with the identity index array
// twice on a device group, through the composite path and through the
// (key, index) network, and requires the same key bits, index array and
// device counters. It reports whether the composite path reran the
// (key, index) network.
func compareComposite(t *testing.T, ks []float64) bool {
	t.Helper()
	d := device.New(device.Config{Workers: 1, LocalMemBytes: -1})
	defer d.Close()
	run := func(composite bool) ([]float64, []int, device.Counters, bool) {
		keys := append([]float64(nil), ks...)
		idx := make([]int, len(ks))
		for i := range idx {
			idx[i] = i
		}
		nt := NewNet()
		sorted, reran := false, false
		c := d.Launch("sort", device.Grid{Groups: 1, GroupSize: 64}, func(g *device.Group) {
			if composite {
				sorted, reran = nt.sortComposite(g, keys, idx)
			} else {
				nt.bitonic(g, keys, idx)
				sorted = true
			}
		}).Count
		if !sorted {
			t.Fatalf("composite path declined the identity index array for %v", ks)
		}
		return keys, idx, c, reran
	}
	gotKeys, gotIdx, gotCount, reran := run(true)
	wantKeys, wantIdx, wantCount, _ := run(false)
	for i := range wantKeys {
		if math.Float64bits(gotKeys[i]) != math.Float64bits(wantKeys[i]) || gotIdx[i] != wantIdx[i] {
			t.Fatalf("composite sort of %v: lane %d holds (%v, %d), the (key, index) network (%v, %d)",
				ks, i, gotKeys[i], gotIdx[i], wantKeys[i], wantIdx[i])
		}
	}
	if gotCount != wantCount {
		t.Fatalf("composite sort of %v: counters %+v, the (key, index) network %+v", ks, gotCount, wantCount)
	}
	return reran
}

// TestSortCompositeFallback holds two distinct keys whose KeyImages
// differ only in the low bits the composite word replaces. With the
// larger key in the higher lane the composite words order the pair
// wrongly, and the (key, index) network must rerun; in the other lane
// order they order it rightly, and it must not.
func TestSortCompositeFallback(t *testing.T) {
	x := 0.5
	y := math.Nextafter(x, 1)
	if KeyImage(x)&^3 != KeyImage(y)&^3 {
		t.Fatal("test keys do not share their high bits")
	}
	cases := []struct {
		name  string
		keys  []float64
		reran bool
	}{
		{"larger-key-in-higher-lane", []float64{x, y, 2, -1}, true},
		{"larger-key-in-lower-lane", []float64{y, x, 2, -1}, false},
		{"equal-keys", []float64{x, 2, x, -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := compareComposite(t, c.keys); got != c.reran {
				t.Fatalf("composite path reran the (key, index) network: %v, want %v", got, c.reran)
			}
		})
	}
}
