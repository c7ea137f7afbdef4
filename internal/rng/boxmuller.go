package rng

import "math"

// BoxMuller maps two independent uniforms u1, u2 in (0,1) to two
// independent standard-normal deviates. This is the transformation the
// paper added to its MTGP port (§VI-A) so that the PRNG kernel emits
// normally distributed process-noise samples directly.
func BoxMuller(u1, u2 float64) (z0, z1 float64) {
	r := math.Sqrt(-2 * math.Log(u1))
	theta := 2 * math.Pi * u2
	s, c := math.Sincos(theta)
	return r * c, r * s
}
