package resample

import (
	"math"
	"testing"

	"esthera/internal/rng"
)

// TestESSNonFinite pins the degeneracy-signal fix: a NaN or Inf weight
// must read as fully degenerate (ESS 0) so ESSThreshold keeps firing on
// a poisoned filter. Pre-fix, ESS returned NaN here and
// ShouldResample's NaN < frac·n comparison silently disabled resampling
// forever.
func TestESSNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		w    []float64
	}{
		{"nan-first", []float64{nan, 1, 1}},
		{"nan-mid", []float64{1, nan, 1}},
		{"nan-last", []float64{1, 1, nan}},
		{"all-nan", []float64{nan, nan}},
		{"inf", []float64{inf, 1, 1}},
		{"neg-inf", []float64{math.Inf(-1), 1}},
		{"inf-and-nan", []float64{inf, nan}},
	}
	for _, c := range cases {
		if got := ESS(c.w); got != 0 {
			t.Errorf("ESS(%s) = %v, want 0 (fully degenerate)", c.name, got)
		}
	}
	// And the policy must therefore fire.
	r := rng.New(rng.NewPhilox(1))
	if !(ESSThreshold{Frac: 0.5}).ShouldResample([]float64{nan, 1, 1}, r) {
		t.Fatal("ESSThreshold must resample a NaN-poisoned weight vector")
	}
}

func TestPolicyByNameParams(t *testing.T) {
	good := []struct {
		in   string
		want string
	}{
		{"", "always"},
		{"always", "always"},
		{"never", "never"},
		{"ess", "ess"},
		{"ess:0.3", "ess"},
		{"ess:1.5", "ess"}, // > 1 legal: resamples always (ablation endpoint)
		{"random", "random"},
		{"random:0.25", "random"},
		{"random:0", "random"},
		{"random:1", "random"},
	}
	for _, c := range good {
		p, err := PolicyByName(c.in)
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", c.in, err)
			continue
		}
		if p.Name() != c.want {
			t.Errorf("PolicyByName(%q).Name() = %q, want %q", c.in, p.Name(), c.want)
		}
	}
	if p, _ := PolicyByName("ess:0.3"); p.(ESSThreshold).Frac != 0.3 {
		t.Errorf("ess:0.3 parsed Frac %v", p.(ESSThreshold).Frac)
	}
	if p, _ := PolicyByName("random:0.25"); p.(RandomFrequency).P != 0.25 {
		t.Errorf("random:0.25 parsed P %v", p.(RandomFrequency).P)
	}
	bad := []string{
		"ess:0", "ess:-0.5", "ess:NaN", "ess:x",
		"random:-0.1", "random:1.1", "random:NaN", "random:x",
		"always:0.5", "never:1", "bogus", "bogus:1", ":0.5",
	}
	for _, in := range bad {
		if _, err := PolicyByName(in); err == nil {
			t.Errorf("PolicyByName(%q) must error", in)
		}
	}
}
