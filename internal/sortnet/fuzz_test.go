package sortnet

import (
	"math"
	"sort"
	"testing"

	"esthera/internal/device"
)

// FuzzBitonicSort checks the kernels' bitonic network (Net) against the
// stdlib sort for arbitrary inputs, including negatives, ties and
// infinities.
func FuzzBitonicSort(f *testing.F) {
	f.Add([]byte{5, 3, 9, 1})
	f.Add([]byte{0})
	f.Add([]byte{255, 255, 0, 0, 128})
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
	})
}
