package model

import (
	"math"
	"testing"

	"esthera/internal/mat"
	"esthera/internal/rng"
)

func TestLogNormPDF(t *testing.T) {
	// Standard normal at 0: log(1/sqrt(2π)).
	want := -0.5 * math.Log(2*math.Pi)
	if got := LogNormPDF(0, 0, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LogNormPDF(0,0,1) = %v, want %v", got, want)
	}
	// Scaling: N(x; m, s) density at mean is 1/(s·sqrt(2π)).
	if got := LogNormPDF(3, 3, 2); math.Abs(got-(want-math.Log(2))) > 1e-12 {
		t.Fatalf("LogNormPDF at mean with sigma 2 wrong: %v", got)
	}
	// Symmetry.
	if LogNormPDF(1, 0, 1) != LogNormPDF(-1, 0, 1) {
		t.Fatal("LogNormPDF not symmetric")
	}
}

func TestNumericalJacobianLinear(t *testing.T) {
	// f(x) = A·x must give back A.
	a := mat.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	f := func(dst, x []float64) { copy(dst, a.MulVec(x)) }
	jac := mat.NewMatrix(2, 3)
	NumericalJacobian(jac, f, []float64{0.3, -0.7, 1.2})
	for i := range a.Data {
		if math.Abs(jac.Data[i]-a.Data[i]) > 1e-6 {
			t.Fatalf("jacobian[%d] = %v, want %v", i, jac.Data[i], a.Data[i])
		}
	}
}

func TestNumericalJacobianNonlinear(t *testing.T) {
	f := func(dst, x []float64) { dst[0] = math.Sin(x[0]) * x[1] }
	jac := mat.NewMatrix(1, 2)
	x := []float64{0.5, 2}
	NumericalJacobian(jac, f, x)
	if math.Abs(jac.At(0, 0)-2*math.Cos(0.5)) > 1e-6 {
		t.Fatalf("d/dx0 = %v, want %v", jac.At(0, 0), 2*math.Cos(0.5))
	}
	if math.Abs(jac.At(0, 1)-math.Sin(0.5)) > 1e-6 {
		t.Fatalf("d/dx1 = %v, want %v", jac.At(0, 1), math.Sin(0.5))
	}
}

// checkModelContract exercises the generic Model invariants.
func checkModelContract(t *testing.T, m Model) {
	t.Helper()
	r := rng.New(rng.NewPhilox(5))
	n, zd, ud := m.StateDim(), m.MeasurementDim(), m.ControlDim()
	if n <= 0 || zd <= 0 || ud < 0 {
		t.Fatalf("%s: bad dimensions %d/%d/%d", m.Name(), n, zd, ud)
	}
	x := make([]float64, n)
	m.InitParticle(x, r)
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: InitParticle produced non-finite x[%d]", m.Name(), i)
		}
	}
	dst := make([]float64, n)
	u := make([]float64, ud)
	m.Step(dst, x, u, 1, r)
	for i, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: Step produced non-finite dst[%d]", m.Name(), i)
		}
	}
	z := make([]float64, zd)
	m.Measure(z, dst, r)
	ll := m.LogLikelihood(dst, z)
	if math.IsNaN(ll) || math.IsInf(ll, 1) {
		t.Fatalf("%s: LogLikelihood = %v", m.Name(), ll)
	}
	// A state consistent with z must be at least as likely as a far-off one.
	far := append([]float64(nil), dst...)
	for i := range far {
		far[i] += 50
	}
	if m.LogLikelihood(far, z) > ll {
		t.Fatalf("%s: distant state more likely than the generating one", m.Name())
	}
	px, py := m.TrackedPosition(dst)
	if math.IsNaN(px) || math.IsNaN(py) {
		t.Fatalf("%s: TrackedPosition NaN", m.Name())
	}
	if m.Name() == "" {
		t.Fatal("empty model name")
	}
}

func TestUNGMContract(t *testing.T)       { checkModelContract(t, NewUNGM()) }
func TestBearingsContract(t *testing.T)   { checkModelContract(t, NewBearings()) }
func TestVolatilityContract(t *testing.T) { checkModelContract(t, NewStochasticVolatility()) }

func TestUNGMStepMeanKnown(t *testing.T) {
	m := NewUNGM()
	dst := make([]float64, 1)
	m.StepMean(dst, []float64{1}, nil, 0)
	want := 0.5 + 25.0/2 + 8.0 // cos(0)=1
	if math.Abs(dst[0]-want) > 1e-12 {
		t.Fatalf("UNGM StepMean = %v, want %v", dst[0], want)
	}
}

func TestUNGMJacobianMatchesNumeric(t *testing.T) {
	m := NewUNGM()
	for _, x0 := range []float64{-3, -0.5, 0, 0.8, 10} {
		jac := mat.NewMatrix(1, 1)
		m.StepJacobian(jac, []float64{x0}, nil, 2)
		num := mat.NewMatrix(1, 1)
		NumericalJacobian(num, func(dst, x []float64) { m.StepMean(dst, x, nil, 2) }, []float64{x0})
		if math.Abs(jac.At(0, 0)-num.At(0, 0)) > 1e-5 {
			t.Fatalf("x=%v: analytic %v vs numeric %v", x0, jac.At(0, 0), num.At(0, 0))
		}
		m.MeasureJacobian(jac, []float64{x0})
		NumericalJacobian(num, m.MeasureMean, []float64{x0})
		if math.Abs(jac.At(0, 0)-num.At(0, 0)) > 1e-5 {
			t.Fatalf("measure jacobian x=%v: %v vs %v", x0, jac.At(0, 0), num.At(0, 0))
		}
	}
}

func TestBearingsJacobianMatchesNumeric(t *testing.T) {
	m := NewBearings()
	x := []float64{1.5, 4.0, 0.3, -0.2}
	jac := mat.NewMatrix(2, 4)
	m.MeasureJacobian(jac, x)
	num := mat.NewMatrix(2, 4)
	NumericalJacobian(num, m.MeasureMean, x)
	for i := range jac.Data {
		if math.Abs(jac.Data[i]-num.Data[i]) > 1e-5 {
			t.Fatalf("bearings jacobian[%d]: analytic %v vs numeric %v", i, jac.Data[i], num.Data[i])
		}
	}
}

func TestBearingsLikelihoodWrapsAngles(t *testing.T) {
	m := NewBearings()
	x := []float64{0, 5, 0, 0}
	var z [2]float64
	m.MeasureMean(z[:], x)
	// Shift a bearing by a full turn: likelihood must be unchanged.
	zShift := [2]float64{z[0] + 2*math.Pi, z[1]}
	a := m.LogLikelihood(x, z[:])
	b := m.LogLikelihood(x, zShift[:])
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("likelihood not 2π-periodic: %v vs %v", a, b)
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {math.Pi, math.Pi}, {-math.Pi, math.Pi}, {3 * math.Pi, math.Pi},
		{2 * math.Pi, 0}, {-0.5, -0.5},
	}
	for _, c := range cases {
		if got := wrapAngle(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("wrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Huge and non-finite angles return at once (the turn-by-turn loop
	// never ended on 1e200 or +Inf).
	for _, a := range []float64{1e200, -1e200, 1e7 + 0.5} {
		if got := wrapAngle(a); !(got > -math.Pi && got <= math.Pi) {
			t.Errorf("wrapAngle(%v) = %v, want a value in (-π, π]", a, got)
		}
	}
	for _, a := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := wrapAngle(a); !math.IsNaN(got) {
			t.Errorf("wrapAngle(%v) = %v, want NaN", a, got)
		}
	}
}

func TestVolatilityStationaryInit(t *testing.T) {
	m := NewStochasticVolatility()
	r := rng.New(rng.NewPhilox(8))
	var sum, sum2 float64
	const n = 100000
	x := make([]float64, 1)
	for i := 0; i < n; i++ {
		m.InitParticle(x, r)
		sum += x[0]
		sum2 += x[0] * x[0]
	}
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	wantSD := m.SigmaEta / math.Sqrt(1-m.Phi*m.Phi)
	if math.Abs(mean-m.Mu) > 0.02 {
		t.Fatalf("stationary mean %v, want %v", mean, m.Mu)
	}
	if math.Abs(sd-wantSD) > 0.02 {
		t.Fatalf("stationary sd %v, want %v", sd, wantSD)
	}
}

func TestSimulatedScenarioDeterministicAndCached(t *testing.T) {
	s := NewSimulated(NewUNGM(), 42)
	x1 := make([]float64, 1)
	x2 := make([]float64, 1)
	s.TrueState(10, x1)
	s.TrueState(10, x2)
	if x1[0] != x2[0] {
		t.Fatal("TrueState not cached/deterministic")
	}
	// A fresh scenario with the same seed reproduces the same truth.
	s2 := NewSimulated(NewUNGM(), 42)
	s2.TrueState(10, x2)
	if x1[0] != x2[0] {
		t.Fatal("same-seed scenarios diverge")
	}
	// Different seed should differ.
	s3 := NewSimulated(NewUNGM(), 43)
	s3.TrueState(10, x2)
	if x1[0] == x2[0] {
		t.Fatal("different-seed scenarios identical")
	}
	// Out-of-order access works.
	s4 := NewSimulated(NewUNGM(), 42)
	s4.TrueState(3, x2)
	s4.TrueState(10, x2)
	if x1[0] != x2[0] {
		t.Fatal("out-of-order access changes truth")
	}
}

func TestUNGMZeroValueDefaults(t *testing.T) {
	// A zero-value UNGM must behave like NewUNGM (defaults kick in).
	var m UNGM
	dst := make([]float64, 1)
	ref := NewUNGM()
	dstRef := make([]float64, 1)
	m.StepMean(dst, []float64{2}, nil, 3)
	ref.StepMean(dstRef, []float64{2}, nil, 3)
	if dst[0] != dstRef[0] {
		t.Fatal("zero-value StepMean differs from default")
	}
	if m.LogLikelihood([]float64{1}, []float64{0.05}) != ref.LogLikelihood([]float64{1}, []float64{0.05}) {
		t.Fatal("zero-value likelihood differs from default")
	}
	r := rng.New(rng.NewPhilox(1))
	m.InitParticle(dst, r)
	if math.IsNaN(dst[0]) {
		t.Fatal("zero-value InitParticle NaN")
	}
}

func TestLinearizableCovariancesSPD(t *testing.T) {
	for _, lin := range []Linearizable{NewUNGM(), NewBearings()} {
		if _, err := lin.ProcessCov().Cholesky(); err != nil {
			t.Errorf("%s process covariance not SPD: %v", lin.Name(), err)
		}
		if _, err := lin.MeasureCov().Cholesky(); err != nil {
			t.Errorf("%s measurement covariance not SPD: %v", lin.Name(), err)
		}
	}
}

func TestBearingsStepJacobianMatchesNumeric(t *testing.T) {
	m := NewBearings()
	x := []float64{1, 2, 0.5, -0.3}
	jac := mat.NewMatrix(4, 4)
	m.StepJacobian(jac, x, nil, 0)
	num := mat.NewMatrix(4, 4)
	NumericalJacobian(num, func(dst, xx []float64) { m.StepMean(dst, xx, nil, 0) }, x)
	for i := range jac.Data {
		if math.Abs(jac.Data[i]-num.Data[i]) > 1e-6 {
			t.Fatalf("step jacobian[%d]: %v vs %v", i, jac.Data[i], num.Data[i])
		}
	}
}

func TestBearingsWrapResidual(t *testing.T) {
	m := NewBearings()
	res := []float64{3 * math.Pi, -3 * math.Pi}
	m.WrapResidual(res)
	for i, v := range res {
		if v > math.Pi || v <= -math.Pi {
			t.Fatalf("res[%d] = %v not wrapped", i, v)
		}
	}
}

func TestSimulatedScenarioAccessors(t *testing.T) {
	m := NewUNGM()
	s := NewSimulated(m, 1)
	if s.Model() != Model(m) {
		t.Fatal("Model accessor wrong")
	}
	s.Control(3, nil) // no-op, must not panic
}

func TestVehicleRouteModelAccessor(t *testing.T) {
	v := NewVehicle()
	r := NewVehicleRoute(v)
	if r.Model() != Model(v) {
		t.Fatal("route model accessor wrong")
	}
	r.Control(0, nil) // zero-length control, must not panic
}
