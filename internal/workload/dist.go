// Package workload holds the two pieces the workload and platform
// factories share below the root package: key=val option decoding
// (Options, ParseOptions and Decoder, which reads -wopt into a
// workload and -popt into a platform preset) and the request
// distributions behind YCSB, zipfian (the YCSB default) and uniform.
// The zipfian implementation follows the standard YCSB / Gray et al.
// rejection-free construction.
package workload

import (
	"math"
	"math/rand"
)

// KeyChooser selects record indices in [0, n).
type KeyChooser interface {
	Next(rng *rand.Rand) int
}

// Uniform picks keys uniformly.
type Uniform struct{ N int }

// Next implements KeyChooser.
func (u Uniform) Next(rng *rand.Rand) int { return rng.Intn(u.N) }

// Zipfian picks keys with a zipfian distribution (constant 0.99, as in
// YCSB), favouring low indices.
type Zipfian struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipfian builds a zipfian chooser over n items.
func NewZipfian(n int) *Zipfian {
	const theta = 0.99
	z := &Zipfian{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / pow(float64(i), theta)
	}
	return sum
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// Next implements KeyChooser.
func (z *Zipfian) Next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+pow(0.5, z.theta) {
		return 1
	}
	idx := int(float64(z.n) * pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.n {
		idx = z.n - 1
	}
	return idx
}
