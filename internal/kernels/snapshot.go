package kernels

import (
	"fmt"

	"esthera/internal/rng"
)

// Snapshot is a deep copy of a pipeline's mutable state: the particle
// population, accumulated log-weights, last estimate bookkeeping, the
// round count, and the exact position of every per-sub-filter random
// stream. A pipeline
// restored from a Snapshot continues bit-identically to the pipeline the
// snapshot was taken from — the property the serve layer's
// checkpoint/restore relies on.
//
// The shape fields (SubFilters, ParticlesPer, Dim) must match the
// restoring pipeline's configuration; Restore validates them, and each
// stream state must be a Philox buffer state.
type Snapshot struct {
	SubFilters   int       `json:"sub_filters"`
	ParticlesPer int       `json:"particles_per"`
	Dim          int       `json:"dim"`
	X            []float64 `json:"-"` // particle state, AoS (serialized out-of-band: may be large and must stay bit-exact)
	LogW         []float64 `json:"-"`
	BestSub      int       `json:"best_sub"`
	BestLW       float64   `json:"-"`
	// Round is the number of rounds completed (Rounds); the restored
	// pipeline's round count, health-sample rounds and stride phase
	// continue from it.
	Round int64       `json:"round"`
	Rands []rng.State `json:"rands"`
}

// Snapshot captures the pipeline's current state. It must not be called
// concurrently with Round/Kernel* on the same pipeline.
func (p *Pipeline) Snapshot() *Snapshot {
	s := &Snapshot{
		SubFilters:   p.cfg.SubFilters,
		ParticlesPer: p.cfg.ParticlesPer,
		Dim:          p.dim,
		X:            p.Particles(),
		LogW:         append([]float64(nil), p.logw...),
		BestSub:      p.bestSub,
		BestLW:       p.bestLW,
		Round:        p.round,
		Rands:        make([]rng.State, p.cfg.SubFilters),
	}
	for i, r := range p.rands {
		s.Rands[i] = r.SaveState()
	}
	return s
}

// Restore overwrites the pipeline's state from a snapshot taken from a
// pipeline with the same configuration. It must not be called
// concurrently with Round/Kernel* on the same pipeline.
func (p *Pipeline) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("kernels: nil snapshot")
	}
	if s.SubFilters != p.cfg.SubFilters || s.ParticlesPer != p.cfg.ParticlesPer || s.Dim != p.dim {
		return fmt.Errorf("kernels: snapshot shape %d×%d (dim %d) does not match pipeline %d×%d (dim %d)",
			s.SubFilters, s.ParticlesPer, s.Dim, p.cfg.SubFilters, p.cfg.ParticlesPer, p.dim)
	}
	if len(s.X) != len(p.cur.arena) || len(s.LogW) != len(p.logw) {
		return fmt.Errorf("kernels: snapshot buffers %d/%d do not match pipeline %d/%d",
			len(s.X), len(s.LogW), len(p.cur.arena), len(p.logw))
	}
	if len(s.Rands) != len(p.rands) {
		return fmt.Errorf("kernels: snapshot has %d streams, pipeline %d", len(s.Rands), len(p.rands))
	}
	if s.BestSub < 0 || s.BestSub >= p.cfg.SubFilters {
		return fmt.Errorf("kernels: snapshot best sub-filter %d out of range", s.BestSub)
	}
	if s.Round < 0 {
		return fmt.Errorf("kernels: negative snapshot round %d", s.Round)
	}
	// Restore every stream, and roll them all back to their saved
	// positions if one is malformed, so a malformed snapshot cannot
	// leave the pipeline half-restored.
	saved := make([]rng.State, len(p.rands))
	for i, r := range p.rands {
		saved[i] = r.SaveState()
	}
	for i, r := range p.rands {
		if err := r.RestoreState(s.Rands[i]); err != nil {
			for j := 0; j <= i; j++ {
				_ = p.rands[j].RestoreState(saved[j])
			}
			return fmt.Errorf("kernels: stream %d: %w", i, err)
		}
	}
	p.unpackFrom(s.X)
	copy(p.logw, s.LogW)
	p.bestSub, p.bestLW = s.BestSub, s.BestLW
	p.round = s.Round
	return nil
}
