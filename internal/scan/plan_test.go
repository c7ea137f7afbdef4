package scan

import (
	"fmt"
	"math/bits"
	"testing"

	"esthera/internal/device"
	"esthera/internal/rng"
)

// TestPlanOnDeviceGroup runs the Plan primitives inside real device
// launches and pins the cost accounting internal/platform reads to the
// shape of each network, at power-of-two and padded lengths. With p the
// padded length and L = log2 p:
//
//   - Exclusive visits 2(p−1) tree nodes in 2L+1 barrier steps (up-sweep,
//     root clear, down-sweep); each visit reads two slots, the up-sweep
//     writes one and the down-sweep two, and the clear writes the root.
//   - MaxIndex visits p−1 nodes in L+1 steps (the load, then one per
//     level), after loading p (value, index) slots.
func TestPlanOnDeviceGroup(t *testing.T) {
	r := rng.New(rng.NewPhilox(5))
	pl := NewPlan()
	run := func(f func(ctx device.Ctx)) device.Counters {
		d := device.New(device.Config{Workers: 2, LocalMemBytes: -1})
		return d.Launch("plan-test", device.Grid{Groups: 1, GroupSize: 64}, func(g *device.Group) {
			f(g)
		}).Count
	}
	check := func(t *testing.T, name string, got device.Counters, steps, ops, localRead, localWrite int) {
		t.Helper()
		want := device.Counters{
			Steps:           int64(steps),
			LaneInvocations: int64(64 * steps),
			Ops:             int64(ops),
			LocalReadBytes:  int64(localRead),
			LocalWriteBytes: int64(localWrite),
		}
		if got != want {
			t.Fatalf("%s: counters %+v, want %+v", name, got, want)
		}
	}
	for _, n := range []int{1, 2, 3, 7, 8, 100, 128, 300} {
		src := make([]float64, n)
		for i := range src {
			src[i] = r.Float64()
		}
		p := nextPow2(n)
		L := bits.Len(uint(p)) - 1
		buf := append([]float64(nil), src...)
		check(t, fmt.Sprintf("n=%d Exclusive", n), run(func(ctx device.Ctx) { pl.Exclusive(ctx, buf) }),
			2*L+1, 2*(p-1), 32*(p-1), 24*(p-1)+8)
		check(t, fmt.Sprintf("n=%d MaxIndex", n), run(func(ctx device.Ctx) { pl.MaxIndex(ctx, src) }),
			L+1, p-1, 24*(p-1), 12*p+12*(p-1))
	}
}
