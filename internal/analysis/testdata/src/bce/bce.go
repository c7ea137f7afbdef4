// Package bce exercises the bounds-check ratchet: functions marked
// //esthera:hotpath bce must not retain per-element-loop bounds checks
// beyond their scripts/bce_baseline.txt budget (zero here), and every
// budget of this package must name one of them (bce_baseline.txt holds
// two that do not, plus two for other packages).
package bce // want `stale budget in scripts/bce_baseline.txt: fixture/bce\.Removed names no` `stale budget in scripts/bce_baseline.txt: fixture/bce\.Unratcheted names no`

// GatherStride reads at a stride the prover cannot tie to the loop
// bound, so the access retains its check inside the loop.
//
//esthera:hotpath bce
func GatherStride(dst, src []float64) {
	n := len(dst)
	d := dst[:n:n]
	for i := range d {
		d[i] = src[2*i] // want `retained bounds check in per-element loop of GatherStride`
	}
}

// Head retains checks only in straight-line setup code (outside any
// loop); setup-class checks are sanctioned unconditionally.
//
//esthera:hotpath bce
func Head(dst, src []float64) float64 {
	x := src[0]
	y := dst[1]
	return x + y
}

// Clamped reslices both operands to a common proven length, so the
// prover eliminates every in-loop check.
//
//esthera:hotpath bce
func Clamped(dst, src []float64) {
	n := len(dst)
	if len(src) < n {
		return
	}
	d := dst[:n:n]
	s := src[:n]
	for i := range d {
		d[i] = s[i]
	}
}

// Unratcheted carries no contract: retained checks are not findings.
func Unratcheted(dst, src []float64) {
	for i := range dst {
		dst[i] = src[3*i]
	}
}
