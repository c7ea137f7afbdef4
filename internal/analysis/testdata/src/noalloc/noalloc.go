// Package noalloc exercises the noalloc analyzer: functions marked
// //esthera:hotpath noalloc must show no heap allocations under escape
// analysis, except through the device arena or an explicit allow.
package noalloc

import (
	"esthera/internal/device"
)

// Leaky is a marked hot function with a deliberate per-call heap
// allocation: the slice is returned, so it must escape.
//
//esthera:hotpath noalloc
func Leaky(dst []float64) []float64 {
	tmp := make([]float64, len(dst)) // want `heap allocation in //esthera:hotpath noalloc function Leaky`
	for i := range tmp {
		tmp[i] = dst[i] * 2
	}
	return tmp
}

// Unmarked allocates freely: no contract, no finding.
func Unmarked(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// ArenaUser requests scratch through the device arena; the grow-path
// make that inlines into this line is sanctioned.
//
//esthera:hotpath noalloc
func ArenaUser(g *device.Group, n int) int {
	idx := g.ScratchInt(n)
	s := 0
	for i := range idx {
		idx[i] = i
		s += idx[i]
	}
	return s
}

// Allowed escapes deliberately, with a reviewed suppression.
//
//esthera:hotpath noalloc
func Allowed(n int) []int {
	//esthera:allow noalloc fixture-sanctioned amortized growth
	out := make([]int, n)
	return out
}

var sink []int

// Grows appends to a package-level slice. Escape analysis reports
// nothing for the heap growth, so the append itself is flagged.
//
//esthera:hotpath noalloc
func Grows(v int) {
	sink = append(sink, v) // want `append in //esthera:hotpath noalloc function Grows`
}

// AllowedAppend appends into a caller-owned buffer with a reviewed
// suppression.
//
//esthera:hotpath noalloc
func AllowedAppend(dst []int, v int) []int {
	//esthera:allow noalloc fixture-sanctioned amortized growth
	return append(dst, v)
}
