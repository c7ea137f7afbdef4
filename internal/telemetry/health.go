package telemetry

import "math"

// FilterHealth summarizes particle-weight quality for one filter at
// one round. All quantities are computed from the normalized weights
// w_i = exp(logw_i - max logw), read after weighting and before
// resampling — the point where degeneracy is visible.
type FilterHealth struct {
	// Round is the filter round the sample was taken at.
	Round int64 `json:"round"`
	// Particles is the total particle count the sample covers.
	Particles int `json:"particles"`
	// ESS is the effective sample size (sum w)^2 / sum w^2, in
	// [1, Particles] for non-degenerate weights; 0 when all weights
	// underflow.
	ESS float64 `json:"ess"`
	// ESSFrac is ESS / Particles, the scale-free degeneracy signal.
	ESSFrac float64 `json:"ess_frac"`
	// MaxWeightRatio is max w_i / mean w_i, i.e. how many times
	// over-weighted the heaviest particle is; 1 means uniform, N means
	// total collapse onto one particle.
	MaxWeightRatio float64 `json:"max_weight_ratio"`
	// ResampleAccept is the fraction of sub-filters whose resampling
	// policy fired on the previous round's decision (resampling runs
	// after the health sample point).
	ResampleAccept float64 `json:"resample_accept"`
	// NonFiniteWeights counts log-weights that were NaN or +Inf at the
	// sample point. Any positive count forces the fully-degenerate
	// reading (ESS 0) — a poisoned filter must look maximally unhealthy,
	// not silently healthy — and distinguishes numerical poisoning from
	// benign all-underflow (which also reads ESS 0 but with a 0 here).
	NonFiniteWeights int `json:"non_finite_weights,omitempty"`
}

// HealthFromLogWeights computes a FilterHealth from raw log-weights.
// resampledGroups out of groups is the most recent resample-policy
// acceptance count (pass 0,0 when unknown). The computation is
// read-only and deterministic; it never reorders or rescales the
// input.
func HealthFromLogWeights(logw []float64, resampledGroups, groups int) FilterHealth {
	h := FilterHealth{Particles: len(logw)}
	if groups > 0 {
		h.ResampleAccept = float64(resampledGroups) / float64(groups)
	}
	if len(logw) == 0 {
		return h
	}
	maxLW := math.Inf(-1)
	for _, lw := range logw {
		// NaN and +Inf log-weights are counted and excluded here, then
		// force the degenerate-zero reading below. Without the explicit
		// clamp the NaN would ride through exp() into the sums, and
		// whether the output is 0 or NaN would hinge on the accident of
		// which guard's NaN comparison happens to be false — the same
		// signal-that-lies hole as resample.ESS. (-Inf is a legitimate
		// underflowed weight, not poisoning.)
		if math.IsNaN(lw) || math.IsInf(lw, 1) {
			h.NonFiniteWeights++
			continue
		}
		if lw > maxLW {
			maxLW = lw
		}
	}
	if h.NonFiniteWeights > 0 {
		return h // poisoned: fully degenerate, ESS pinned to 0
	}
	if math.IsInf(maxLW, -1) {
		return h // fully degenerate: every weight underflowed
	}
	var sum, sumSq, maxW float64
	for _, lw := range logw {
		w := math.Exp(lw - maxLW)
		sum += w
		sumSq += w * w
		if w > maxW {
			maxW = w
		}
	}
	if sumSq > 0 {
		h.ESS = sum * sum / sumSq
		h.ESSFrac = h.ESS / float64(len(logw))
	}
	if sum > 0 {
		h.MaxWeightRatio = maxW * float64(len(logw)) / sum
	}
	return h
}

// HealthPartial is one work-group's share of a FilterHealth sample:
// its non-finite count, and Σw, Σw² over w_i = exp(logw_i - Head)
// against the group's own largest log-weight Head. The particle
// filter's local sort computes one per sub-filter in parallel;
// CombineHealth folds them into the sample HealthFromLogWeights
// computes in one serial pass.
type HealthPartial struct {
	Head, Sum, SumSq float64
	NonFinite        int
}

// GroupHealth computes the partial of one group's log-weights, which
// must be sorted descending (the local sort's output), so logw[0] is
// the group's maximum whenever the group holds no NaN or +Inf. Sum and
// SumSq are meaningless when NonFinite > 0 or Head is −Inf;
// CombineHealth ignores them then.
//
//esthera:hotpath noalloc
func GroupHealth(logw []float64) HealthPartial {
	if len(logw) == 0 {
		return HealthPartial{Head: math.Inf(-1)}
	}
	hp := HealthPartial{Head: logw[0]}
	for _, lw := range logw {
		// True for NaN and +Inf only: −Inf is an underflowed weight.
		if !(lw <= math.MaxFloat64) {
			hp.NonFinite++
		}
		w := math.Exp(lw - hp.Head)
		hp.Sum += w
		hp.SumSq += w * w
	}
	return hp
}

// CombineHealth folds per-group partials, in group order, into the
// sample HealthFromLogWeights would compute over the concatenated
// log-weights of particles total: NonFiniteWeights, ResampleAccept and
// Particles match it exactly, ESS, ESSFrac and MaxWeightRatio to
// rounding (each group's sums are rescaled by exp(Head - max Head)).
func CombineHealth(parts []HealthPartial, particles, resampledGroups, groups int) FilterHealth {
	h := FilterHealth{Particles: particles}
	if groups > 0 {
		h.ResampleAccept = float64(resampledGroups) / float64(groups)
	}
	maxLW := math.Inf(-1)
	for _, hp := range parts {
		h.NonFiniteWeights += hp.NonFinite
		if hp.Head > maxLW {
			maxLW = hp.Head
		}
	}
	if h.NonFiniteWeights > 0 || math.IsInf(maxLW, -1) {
		return h // poisoned or fully underflowed, as in HealthFromLogWeights
	}
	var sum, sumSq float64
	for _, hp := range parts {
		if math.IsInf(hp.Head, -1) {
			continue // every weight of the group underflowed
		}
		e := math.Exp(hp.Head - maxLW)
		sum += e * hp.Sum
		sumSq += e * e * hp.SumSq
	}
	if sumSq > 0 {
		h.ESS = sum * sum / sumSq
		h.ESSFrac = h.ESS / float64(particles)
	}
	if sum > 0 {
		// The heaviest weight is exp(maxLW - maxLW) = 1.
		h.MaxWeightRatio = float64(particles) / sum
	}
	return h
}
