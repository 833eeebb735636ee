package workload

import (
	"fmt"
	"math"
)

// Zipfian draws keys with the zipf-like popularity skew real serving
// workloads exhibit: rank r's probability is proportional to 1/r^Theta.
// It implements Gray et al.'s constant-time inversion ("Quickly Generating
// Billion-Record Synthetic Databases", SIGMOD '94) — the same algorithm
// YCSB's ZipfianGenerator uses — over a precomputed zeta sum, so sampling
// costs one uniform draw and a handful of float operations regardless of
// key-space size.
//
// With Scramble set, ranks are hashed (FNV-1a) over the key space so the
// popular keys scatter uniformly instead of clustering at the low end —
// YCSB's "scrambled zipfian". For a hash-partitioned store this spreads the
// hot set across partitions, which is how real key popularity behaves.
type Zipfian struct {
	n        uint64
	theta    float64
	scramble bool

	alpha, zetan, eta float64
	thetaHalfPow      float64 // 0.5^theta, the rank-1 threshold
}

// DefaultTheta is the conventional YCSB zipfian constant.
const DefaultTheta = 0.99

// NewZipfian precomputes a zipfian distribution over [0, n). theta in (0, 1)
// controls the skew (0.99 is the YCSB default; closer to 1 is more skewed).
func NewZipfian(n uint64, theta float64, scramble bool) (*Zipfian, error) {
	if n == 0 {
		return nil, fmt.Errorf("workload: zipfian over empty key space")
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("workload: zipfian theta %g outside (0, 1)", theta)
	}
	z := &Zipfian{n: n, theta: theta, scramble: scramble}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.thetaHalfPow = math.Pow(0.5, theta)
	return z, nil
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Key consumes one draw and returns the next key. Without scrambling the
// result is the popularity rank itself (rank 0 most popular).
func (z *Zipfian) Key(r *LCG) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+z.thetaHalfPow:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	if z.scramble {
		return fnv64(rank) % z.n
	}
	return rank
}

// N reports the key-space size.
func (z *Zipfian) N() uint64 { return z.n }

// fnv64 hashes v's eight bytes with FNV-1a.
func fnv64(v uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}
