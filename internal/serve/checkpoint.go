package serve

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"

	"esthera/internal/filter"
	"esthera/internal/kernels"
	"esthera/internal/rng"
)

// CheckpointVersion is the checkpoint format version Checkpoint writes.
// Version 2 saves each random stream's block as positions (its start and
// end), where version 1 carried the block's words; Restore reads both
// and rejects other versions, so a server that reads only version 1
// refuses a version 2 checkpoint instead of misreading it.
const CheckpointVersion = 2

// Checkpoint is the deterministic serialization of one session: the
// filter spec to rebuild it and the exact runtime state to resume it.
// Particle and weight arrays are base64-encoded little-endian float64
// bit patterns — never decimal-formatted — so a checkpoint/restore
// roundtrip is bit-exact even through JSON (which cannot represent
// ±Inf and rounds long decimals). A session restored from a Checkpoint
// produces estimates bit-identical to the uninterrupted run under the
// same seed and observations; TestCheckpointDeterminism enforces this.
type Checkpoint struct {
	Version int        `json:"version"`
	ID      string     `json:"id"`
	Spec    FilterSpec `json:"spec"`
	Step    int        `json:"step"`

	SubFilters   int `json:"sub_filters"`
	ParticlesPer int `json:"particles_per"`
	Dim          int `json:"dim"`

	// Particles is the N·m·dim particle state, LogWeights the N·m
	// accumulated log-weights (base64 little-endian float64).
	Particles  string `json:"particles"`
	LogWeights string `json:"log_weights"`

	// BestSub and BestLWBits record the last estimate reduction (the
	// log-weight as IEEE-754 bits: it is -Inf before the first step).
	BestSub    int    `json:"best_sub"`
	BestLWBits uint64 `json:"best_lw_bits"`

	// LastState/LastLWBits reproduce Estimate's reply after restore.
	LastState  string `json:"last_state,omitempty"`
	LastLWBits uint64 `json:"last_lw_bits"`

	// Rands is the exact position of every per-sub-filter random stream.
	Rands []rng.State `json:"rands"`
}

// encodeF64s packs floats as base64 little-endian IEEE-754 bits.
func encodeF64s(xs []float64) string {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// decodeF64s unpacks encodeF64s output, checking the expected length
// (pass -1 to skip the check).
func decodeF64s(s string, want int) ([]float64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("serve: bad float array encoding: %w", err)
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("serve: float array has %d bytes, not a multiple of 8", len(buf))
	}
	xs := make([]float64, len(buf)/8)
	if want >= 0 && len(xs) != want {
		return nil, fmt.Errorf("serve: float array has %d values, want %d", len(xs), want)
	}
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return xs, nil
}

// Checkpoint captures session id's full state. It waits for the
// session's in-flight step (if any) to finish, so the snapshot is always
// taken at a round boundary.
func (s *Server) Checkpoint(id string) (*Checkpoint, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	sess.stepMu.Lock()
	defer sess.stepMu.Unlock()
	if sess.isClosed() {
		return nil, ErrNotFound
	}
	return s.checkpointLocked(id, sess), nil
}

// Export checkpoints session id and closes it in one atomic section:
// the in-flight step (if any) finishes, the snapshot lands on a round
// boundary, and no later step can advance the session past its own
// checkpoint — the source-side half of a bit-exact live migration. A
// restored copy of the returned checkpoint continues the estimate
// stream exactly where this session stopped.
func (s *Server) Export(id string) (*Checkpoint, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	sess.stepMu.Lock()
	defer sess.stepMu.Unlock()
	if sess.isClosed() {
		return nil, ErrNotFound
	}
	cp := s.checkpointLocked(id, sess)
	sess.markClosed()
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
	return cp, nil
}

// checkpointLocked serializes a session; the caller holds sess.stepMu.
func (s *Server) checkpointLocked(id string, sess *Session) *Checkpoint {
	snap := sess.f.Pipeline().Snapshot()
	last := sess.lastResult()
	return &Checkpoint{
		Version:      CheckpointVersion,
		ID:           id,
		Spec:         sess.spec,
		Step:         int(snap.Round),
		SubFilters:   snap.SubFilters,
		ParticlesPer: snap.ParticlesPer,
		Dim:          snap.Dim,
		Particles:    encodeF64s(snap.X),
		LogWeights:   encodeF64s(snap.LogW),
		BestSub:      snap.BestSub,
		BestLWBits:   math.Float64bits(snap.BestLW),
		LastState:    encodeF64s(last.State),
		LastLWBits:   math.Float64bits(last.LogWeight),
		Rands:        snap.Rands,
	}
}

// Restore creates a new session from a checkpoint and returns its id.
// The restored session resumes exactly where the checkpoint was taken:
// same particles, same weights, same random-stream positions.
func (s *Server) Restore(cp *Checkpoint) (string, error) {
	if cp == nil {
		return "", fmt.Errorf("serve: nil checkpoint")
	}
	if cp.Version != 1 && cp.Version != CheckpointVersion {
		return "", fmt.Errorf("serve: checkpoint version %d, this server reads 1 and %d", cp.Version, CheckpointVersion)
	}
	sp := cp.Spec.withDefaults()
	if cp.SubFilters != sp.SubFilters || cp.ParticlesPer != sp.ParticlesPer {
		return "", fmt.Errorf("serve: checkpoint shape %d×%d does not match its spec %d×%d",
			cp.SubFilters, cp.ParticlesPer, sp.SubFilters, sp.ParticlesPer)
	}
	f, mdl, err := s.buildFilter(sp)
	if err != nil {
		return "", err
	}
	if mdl.StateDim() != cp.Dim {
		return "", fmt.Errorf("serve: checkpoint state dim %d, model %q has %d", cp.Dim, sp.Model, mdl.StateDim())
	}
	n := cp.SubFilters * cp.ParticlesPer
	x, err := decodeF64s(cp.Particles, n*cp.Dim)
	if err != nil {
		return "", err
	}
	logw, err := decodeF64s(cp.LogWeights, n)
	if err != nil {
		return "", err
	}
	var lastState []float64
	if cp.LastState != "" {
		if lastState, err = decodeF64s(cp.LastState, -1); err != nil {
			return "", err
		}
	}
	err = f.Pipeline().Restore(&kernels.Snapshot{
		SubFilters:   cp.SubFilters,
		ParticlesPer: cp.ParticlesPer,
		Dim:          cp.Dim,
		X:            x,
		LogW:         logw,
		BestSub:      cp.BestSub,
		BestLW:       math.Float64frombits(cp.BestLWBits),
		Round:        int64(cp.Step),
		Rands:        cp.Rands,
	})
	if err != nil {
		return "", err
	}
	id, err := s.install(sp, f, mdl)
	if err != nil {
		return "", err
	}
	if sess, lookupErr := s.lookup(id); lookupErr == nil {
		sess.seedResult(int64(cp.Step), filter.Estimate{
			State:     lastState,
			LogWeight: math.Float64frombits(cp.LastLWBits),
		})
	}
	return id, nil
}
