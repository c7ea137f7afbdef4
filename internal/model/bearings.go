package model

import (
	"math"

	"esthera/internal/mat"
	"esthera/internal/rng"
)

// Bearings is planar bearings-only target tracking: a near-constant-
// velocity target observed as noisy bearing angles from two fixed
// sensors. State (x, y, vx, vy) — the four-state-variable "small
// estimation problem" class for which the paper reports kHz update rates.
// Two sensors make the target observable without a range measurement.
type Bearings struct {
	// Dt is the sampling interval (default 1).
	Dt float64
	// SigmaA is the acceleration (process) noise std dev (default 0.05).
	SigmaA float64
	// SigmaB is the bearing noise std dev in radians (default 0.02).
	SigmaB float64
	// Sensors holds the two sensor positions; the zero value uses
	// (-10,0) and (10,0).
	Sensors [2][2]float64
	// Prior spread.
	InitPosSigma, InitVelSigma float64
}

// NewBearings returns the model with default parameters.
func NewBearings() *Bearings {
	return &Bearings{
		Dt:           1,
		SigmaA:       0.05,
		SigmaB:       0.02,
		Sensors:      [2][2]float64{{-10, 0}, {10, 0}},
		InitPosSigma: 2,
		InitVelSigma: 0.5,
	}
}

// Name implements Model.
func (m *Bearings) Name() string { return "bearings" }

// StateDim implements Model.
func (m *Bearings) StateDim() int { return 4 }

// MeasurementDim implements Model.
func (m *Bearings) MeasurementDim() int { return 2 }

// ControlDim implements Model.
func (m *Bearings) ControlDim() int { return 0 }

// InitParticle implements Model.
func (m *Bearings) InitParticle(x []float64, r *rng.Rand) {
	x[0] = r.Normal(0, m.InitPosSigma)
	x[1] = r.Normal(5, m.InitPosSigma)
	x[2] = r.Normal(0.5, m.InitVelSigma)
	x[3] = r.Normal(0, m.InitVelSigma)
}

// StepMean implements Linearizable.
func (m *Bearings) StepMean(dst, src, _ []float64, _ int) {
	dst[0] = src[0] + m.Dt*src[2]
	dst[1] = src[1] + m.Dt*src[3]
	dst[2] = src[2]
	dst[3] = src[3]
}

// Step implements Model.
func (m *Bearings) Step(dst, src, u []float64, k int, r *rng.Rand) {
	m.StepMean(dst, src, u, k)
	// Discretized white acceleration noise.
	ax := r.Normal(0, m.SigmaA)
	ay := r.Normal(0, m.SigmaA)
	h := m.Dt
	dst[0] += 0.5 * h * h * ax
	dst[1] += 0.5 * h * h * ay
	dst[2] += h * ax
	dst[3] += h * ay
}

// MeasureMean implements Linearizable.
func (m *Bearings) MeasureMean(z, x []float64) {
	for s := 0; s < 2; s++ {
		z[s] = math.Atan2(x[1]-m.Sensors[s][1], x[0]-m.Sensors[s][0])
	}
}

// Measure implements Model.
func (m *Bearings) Measure(z, x []float64, r *rng.Rand) {
	m.MeasureMean(z, x)
	for s := range z {
		z[s] += r.Normal(0, m.SigmaB)
	}
}

// LogLikelihood implements Model. Bearing residuals are wrapped to
// (-π, π] before evaluation.
func (m *Bearings) LogLikelihood(x, z []float64) float64 {
	var pred [2]float64
	m.MeasureMean(pred[:], x)
	ll := 0.0
	for s := range z {
		d := wrapAngle(z[s] - pred[s])
		ll += LogNormPDF(d, 0, m.SigmaB)
	}
	return ll
}

// TrackedPosition implements Model.
func (m *Bearings) TrackedPosition(x []float64) (float64, float64) { return x[0], x[1] }

// StepJacobian implements Linearizable.
func (m *Bearings) StepJacobian(jac *mat.Matrix, _, _ []float64, _ int) {
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			jac.Set(i, j, 0)
		}
		jac.Set(i, i, 1)
	}
	jac.Set(0, 2, m.Dt)
	jac.Set(1, 3, m.Dt)
}

// MeasureJacobian implements Linearizable.
func (m *Bearings) MeasureJacobian(jac *mat.Matrix, x []float64) {
	for s := 0; s < 2; s++ {
		dx := x[0] - m.Sensors[s][0]
		dy := x[1] - m.Sensors[s][1]
		r2 := dx*dx + dy*dy
		if r2 == 0 {
			r2 = 1e-12
		}
		jac.Set(s, 0, -dy/r2)
		jac.Set(s, 1, dx/r2)
		jac.Set(s, 2, 0)
		jac.Set(s, 3, 0)
	}
}

// ProcessCov implements Linearizable.
func (m *Bearings) ProcessCov() *mat.Matrix {
	h := m.Dt
	q := m.SigmaA * m.SigmaA
	// Discretized white-acceleration covariance per axis:
	// [h⁴/4 h³/2; h³/2 h²]·q.
	c := mat.NewMatrix(4, 4)
	c.Set(0, 0, q*h*h*h*h/4)
	c.Set(0, 2, q*h*h*h/2)
	c.Set(2, 0, q*h*h*h/2)
	c.Set(2, 2, q*h*h)
	c.Set(1, 1, q*h*h*h*h/4)
	c.Set(1, 3, q*h*h*h/2)
	c.Set(3, 1, q*h*h*h/2)
	c.Set(3, 3, q*h*h)
	// The single-noise-source discretization is exactly rank-1 per axis;
	// a tiny diagonal keeps the matrix strictly positive definite for
	// consumers that factorize it.
	for i := 0; i < 4; i++ {
		c.Set(i, i, c.At(i, i)+1e-12)
	}
	return c
}

// MeasureCov implements Linearizable.
func (m *Bearings) MeasureCov() *mat.Matrix {
	v := m.SigmaB * m.SigmaB
	return mat.Diag([]float64{v, v})
}

// WrapResidual wraps the bearing residuals into (-π, π] so Kalman-type
// updates handle the angular discontinuity (consumed by the EKF/UKF
// baselines via an optional interface).
func (m *Bearings) WrapResidual(res []float64) {
	for i := range res {
		res[i] = wrapAngle(res[i])
	}
}

// wrapAngle maps an angle to (-π, π]. A residual within maxTurnAngle
// takes the turn-by-turn loop; a larger one (a huge measurement) is
// first reduced with math.Remainder, because the loop would spin once
// per turn, and forever once 2π falls below the angle's float spacing.
// A non-finite angle comes out NaN.
func wrapAngle(a float64) float64 {
	if !(math.Abs(a) <= maxTurnAngle) {
		a = math.Remainder(a, 2*math.Pi)
	}
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// maxTurnAngle bounds the angles wrapAngle reduces turn by turn.
const maxTurnAngle = 1 << 20

// StepVec implements VecModel: two acceleration draws per row, consumed
// row-major exactly as Step draws them.
//
//esthera:hotpath noalloc bce
func (m *Bearings) StepVec(dst, src [][]float64, _ []float64, _ int, r *rng.Rand) {
	n := len(dst[0])
	d0, d1, d2, d3 := dst[0][:n:n], dst[1][:n:n], dst[2][:n:n], dst[3][:n:n]
	s0, s1, s2, s3 := src[0][:n], src[1][:n], src[2][:n], src[3][:n]
	zs := r.Normals(2 * n)[: 2*n : 2*n]
	h := m.Dt
	hh := 0.5 * h * h
	sa := m.SigmaA
	for i := range d0 {
		ax := sa * zs[2*i]
		ay := sa * zs[2*i+1]
		d0[i] = s0[i] + h*s2[i] + hh*ax
		d1[i] = s1[i] + h*s3[i] + hh*ay
		d2[i] = s2[i] + h*ax
		d3[i] = s3[i] + h*ay
	}
}

// LogLikelihoodVec implements VecModel with the noise stddev's log and
// the sensor coordinates hoisted out of the row loop.
//
//esthera:hotpath noalloc bce
func (m *Bearings) LogLikelihoodVec(ll []float64, x [][]float64, z []float64) {
	n := len(ll)
	out := ll[:n:n]
	x0, x1 := x[0][:n], x[1][:n]
	sigma := m.SigmaB
	logSigma := math.Log(sigma)
	halfLog2Pi := 0.5 * math.Log(2*math.Pi)
	s0x, s0y := m.Sensors[0][0], m.Sensors[0][1]
	s1x, s1y := m.Sensors[1][0], m.Sensors[1][1]
	z0, z1 := z[0], z[1]
	for i := range out {
		d0 := wrapAngle(z0-math.Atan2(x1[i]-s0y, x0[i]-s0x)) / sigma
		d1 := wrapAngle(z1-math.Atan2(x1[i]-s1y, x0[i]-s1x)) / sigma
		out[i] = (-0.5*d0*d0 - logSigma - halfLog2Pi) + (-0.5*d1*d1 - logSigma - halfLog2Pi)
	}
}

// InitVec implements VecModel: four prior draws per row, row-major.
//
//esthera:hotpath noalloc bce
func (m *Bearings) InitVec(x [][]float64, r *rng.Rand) {
	n := len(x[0])
	x0, x1, x2, x3 := x[0][:n:n], x[1][:n:n], x[2][:n:n], x[3][:n:n]
	zs := r.Normals(4 * n)[: 4*n : 4*n]
	ps, vs := m.InitPosSigma, m.InitVelSigma
	for i := range x0 {
		x0[i] = ps * zs[4*i]
		x1[i] = 5 + ps*zs[4*i+1]
		x2[i] = 0.5 + vs*zs[4*i+2]
		x3[i] = vs * zs[4*i+3]
	}
}

var (
	_ Linearizable = (*Bearings)(nil)
	_ VecModel     = (*Bearings)(nil)
)
