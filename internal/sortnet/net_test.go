package sortnet

import (
	"fmt"
	"math/bits"
	"testing"

	"esthera/internal/device"
)

// TestNetOnDeviceGroup sorts inside real device launches and pins the
// cost accounting internal/platform reads to the shape of the network. A
// padded length p = 2^L runs L(L+1)/2 barrier stages of p/2
// compare-exchange pairs; each pair costs 12 ops and reads 24 local
// bytes, and each swap writes 24 back. Swaps depend on the input, so
// their counts are pinned per input, with and without an index array
// (padding ties differ).
func TestNetOnDeviceGroup(t *testing.T) {
	cases := []struct {
		n, swapsIdx, swapsNoIdx int
	}{
		{2, 0, 0},
		{3, 4, 4},
		{5, 13, 9},
		{8, 12, 12},
		{17, 125, 57},
		{100, 943, 769},
		{128, 928, 928},
		{200, 2362, 1900},
		{513, 14121, 5947},
	}
	nt := NewNet()
	for _, c := range cases {
		for _, withIdx := range []bool{true, false} {
			t.Run(fmt.Sprintf("n=%d/idx=%v", c.n, withIdx), func(t *testing.T) {
				ks := randomKeys(c.n, uint64(c.n)*2+7)
				var idx []int
				swaps := c.swapsNoIdx
				if withIdx {
					idx = make([]int, c.n)
					for i := range idx {
						idx[i] = i
					}
					swaps = c.swapsIdx
				}
				d := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
				got := d.Launch("net-test", device.Grid{Groups: 1, GroupSize: 64}, func(g *device.Group) {
					nt.SortDescending(g, ks, idx)
				}).Count
				if !isDescending(ks) {
					t.Fatalf("not descending: %v", ks)
				}
				L := bits.Len(uint(nextPow2(c.n))) - 1
				stages := L * (L + 1) / 2
				pairs := stages * nextPow2(c.n) / 2
				want := device.Counters{
					Steps:           int64(stages),
					LaneInvocations: int64(64 * stages),
					Ops:             int64(12 * pairs),
					LocalReadBytes:  int64(24 * pairs),
					LocalWriteBytes: int64(24 * swaps),
				}
				if got != want {
					t.Fatalf("counters %+v, want %+v", got, want)
				}
			})
		}
	}
}
