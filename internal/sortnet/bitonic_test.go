package sortnet

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"esthera/internal/device"
	"esthera/internal/rng"
)

func randomKeys(n int, seed uint64) []float64 {
	r := rng.New(rng.NewPhilox(seed))
	ks := make([]float64, n)
	for i := range ks {
		ks[i] = r.Float64()
	}
	return ks
}

func isDescending(ks []float64) bool {
	for i := 1; i < len(ks); i++ {
		if ks[i] > ks[i-1] {
			return false
		}
	}
	return true
}

func TestSortDescendingVariousSizes(t *testing.T) {
	nt := NewNet()
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 100, 128, 513} {
		ks := randomKeys(n, uint64(n)+1)
		orig := append([]float64(nil), ks...)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		nt.SortDescending(device.Serial{N: n + 1}, ks, idx)
		if !isDescending(ks) {
			t.Fatalf("n=%d: not descending: %v", n, ks)
		}
		// The index array must carry the same permutation.
		for i := range ks {
			if orig[idx[i]] != ks[i] {
				t.Fatalf("n=%d: idx[%d]=%d does not map to sorted key", n, i, idx[i])
			}
		}
		// Must be a permutation of the original multiset.
		a := append([]float64(nil), orig...)
		b := append([]float64(nil), ks...)
		sort.Float64s(a)
		sort.Float64s(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: multiset changed", n)
			}
		}
	}
}

func TestSortDescendingNilIndex(t *testing.T) {
	ks := randomKeys(37, 9)
	NewNet().SortDescending(device.Serial{N: 64}, ks, nil)
	if !isDescending(ks) {
		t.Fatal("nil-index sort not descending")
	}
}

func TestSortDescendingOnDeviceGroup(t *testing.T) {
	d := device.New(device.Config{Workers: 4, LocalMemBytes: -1})
	const n = 512
	ks := randomKeys(n, 42)
	want := append([]float64(nil), ks...)
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	d.Launch("bitonic", device.Grid{Groups: 1, GroupSize: n}, func(g *device.Group) {
		NewNet().SortDescending(g, ks, nil)
	})
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("device sort mismatch at %d: %v vs %v", i, ks[i], want[i])
		}
	}
}

func TestSortDescendingFewerLanes(t *testing.T) {
	// Grid-stride correctness: 8 lanes sorting 128 elements.
	ks := randomKeys(128, 5)
	NewNet().SortDescending(device.Serial{N: 8}, ks, nil)
	if !isDescending(ks) {
		t.Fatal("few-lane sort not descending")
	}
}

func TestArgsortDescending(t *testing.T) {
	ks := []float64{3, 1, 4, 1, 5}
	idx := ArgsortDescending(ks)
	want := []int{4, 2, 0, 1, 3} // stable: the two 1s keep order
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
	// Input untouched.
	if ks[0] != 3 || ks[4] != 5 {
		t.Fatal("ArgsortDescending mutated input")
	}
}

func TestTopKMatchesArgsort(t *testing.T) {
	for _, n := range []int{1, 5, 16, 100} {
		ks := randomKeys(n, uint64(n)*7+3)
		full := ArgsortDescending(ks)
		for _, k := range []int{0, 1, 2, n / 2, n, n + 5} {
			got := TopK(ks, k)
			wantLen := k
			if wantLen > n {
				wantLen = n
			}
			if wantLen < 0 {
				wantLen = 0
			}
			if len(got) != wantLen {
				t.Fatalf("TopK(%d,%d) length %d, want %d", n, k, len(got), wantLen)
			}
			for i := 0; i < wantLen; i++ {
				if ks[got[i]] != ks[full[i]] {
					t.Fatalf("TopK(%d,%d)[%d]: key %v, want %v", n, k, i, ks[got[i]], ks[full[i]])
				}
			}
		}
	}
}

func TestTopKWithTies(t *testing.T) {
	ks := []float64{2, 2, 2, 1, 3}
	got := TopK(ks, 3)
	want := []int{4, 0, 1} // 3 first, then earliest 2s
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK ties = %v, want %v", got, want)
		}
	}
}

// Property: bitonic network equals the stdlib sort on arbitrary inputs.
func TestQuickBitonicEqualsStdlib(t *testing.T) {
	nt := NewNet()
	f := func(raw []float64) bool {
		ks := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) {
				ks = append(ks, v)
			}
		}
		got := append([]float64(nil), ks...)
		nt.SortDescending(device.Serial{N: len(got) + 1}, got, nil)
		want := append([]float64(nil), ks...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBitonic512(b *testing.B) {
	base := randomKeys(512, 1)
	ks := make([]float64, len(base))
	nt := NewNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ks, base)
		nt.SortDescending(device.Serial{N: 512}, ks, nil)
	}
}

func BenchmarkStdlibSort512(b *testing.B) {
	base := randomKeys(512, 1)
	ks := make([]float64, len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ks, base)
		sort.Sort(sort.Reverse(sort.Float64Slice(ks)))
	}
}

// BenchmarkBitonic64Index sorts what a kernel's local sort sorts: 64
// log-weights with the identity index array, on a device group. Sorts
// run 256 to a launch, since a group's scratch is recycled per launch.
func BenchmarkBitonic64Index(b *testing.B) {
	base := randomKeys(64, 1)
	ks := make([]float64, len(base))
	idx := make([]int, len(base))
	nt := NewNet()
	d := device.New(device.Config{Workers: 1, LocalMemBytes: -1})
	b.ResetTimer()
	for done := 0; done < b.N; done += 256 {
		batch := min(256, b.N-done)
		d.Launch("bench", device.Grid{Groups: 1, GroupSize: 64}, func(g *device.Group) {
			for i := 0; i < batch; i++ {
				copy(ks, base)
				for j := range idx {
					idx[j] = j
				}
				nt.SortDescending(g, ks, idx)
			}
		})
	}
}
