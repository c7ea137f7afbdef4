package rng

import (
	"math"
	"testing"
)

// u32source adapts any Source to draw single 32-bit words for the
// chi-square helpers.
type u32source interface{ Uint64() uint64 }

// checkUniformBits runs a 256-bin chi-square test on the top byte of n
// 64-bit draws and fails if the statistic is implausible (outside roughly
// ±6 sigma for 255 degrees of freedom). It is a smoke test for gross
// defects, not a PRNG certification.
func checkUniformBits(t *testing.T, src u32source, n int) {
	t.Helper()
	var bins [256]int
	for i := 0; i < n; i++ {
		bins[src.Uint64()>>56]++
	}
	expected := float64(n) / 256
	chi2 := 0.0
	for _, c := range bins {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// df = 255 → mean 255, sigma = sqrt(2*255) ≈ 22.6.
	if chi2 < 255-6*22.6 || chi2 > 255+6*22.6 {
		t.Fatalf("chi-square %0.1f implausible for uniform top byte (df=255)", chi2)
	}
}

// checkMoments verifies sample mean/variance/skew/kurtosis of a standard
// normal sampler within loose bounds.
func checkMoments(t *testing.T, sample func() float64, n int) {
	t.Helper()
	var m1, m2, m3, m4 float64
	for i := 0; i < n; i++ {
		x := sample()
		m1 += x
		m2 += x * x
		m3 += x * x * x
		m4 += x * x * x * x
	}
	fn := float64(n)
	mean := m1 / fn
	variance := m2/fn - mean*mean
	skew := m3 / fn
	kurt := m4 / fn
	se := 1 / math.Sqrt(fn)
	if math.Abs(mean) > 6*se {
		t.Errorf("mean %0.4f too far from 0 (se %0.4f)", mean, se)
	}
	if math.Abs(variance-1) > 10*se {
		t.Errorf("variance %0.4f too far from 1", variance)
	}
	if math.Abs(skew) > 20*se {
		t.Errorf("skewness proxy %0.4f too far from 0", skew)
	}
	if math.Abs(kurt-3) > 40*se {
		t.Errorf("kurtosis %0.4f too far from 3", kurt)
	}
}

func TestBoxMullerMoments(t *testing.T) {
	r := New(NewPhilox(99))
	checkMoments(t, r.NormFloat64, 400000)
}

func TestFloat64Range(t *testing.T) {
	r := New(NewPhilox(5))
	for i := 0; i < 100000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		if v := r.OpenFloat64(); v <= 0 || v >= 1 {
			t.Fatalf("OpenFloat64 out of (0,1): %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(NewPhilox(77))
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 1 << 20} {
		for i := 0; i < 1000; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(NewPhilox(1)).Intn(0)
}
