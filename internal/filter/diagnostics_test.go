package filter_test

import (
	"testing"

	"esthera/internal/filter"
)

func TestUniqueParticleFraction(t *testing.T) {
	// 4 particles of dim 2, two identical.
	p := []float64{1, 2, 3, 4, 1, 2, 5, 6}
	if got := filter.UniqueParticleFraction(p, 2); got != 0.75 {
		t.Fatalf("unique fraction %v, want 0.75", got)
	}
	if got := filter.UniqueParticleFraction(nil, 2); got != 0 {
		t.Fatalf("empty fraction %v, want 0", got)
	}
	all := []float64{1, 1, 1}
	if got := filter.UniqueParticleFraction(all, 1); got > 0.34 {
		t.Fatalf("identical particles fraction %v", got)
	}
}
