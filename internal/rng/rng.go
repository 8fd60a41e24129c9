// Package rng provides a fast, deterministic, splittable pseudo-random
// number generator used by every randomized component in this repository.
//
// Reproducibility is a hard requirement for the paper's experiments: ExactSim
// is a *probabilistic* exact algorithm, and its tests assert statistical
// error bounds under fixed seeds. The stdlib math/rand global source is
// lockful and unseedable per-worker, so we implement xoshiro256++ seeded via
// splitmix64 (the construction recommended by its authors). Each parallel
// worker derives an independent stream with Split, which guarantees that
// parallel runs are reproducible regardless of scheduling.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256++ generator. The zero value is invalid; construct with
// New or Split. RNG is not safe for concurrent use; give each goroutine its
// own via Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the seed state and returns the next output. It is used
// only to initialize xoshiro state, per Blackman & Vigna's recommendation.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically derived from seed. Distinct
// seeds yield decorrelated streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the stream identified by seed.
func (r *RNG) Reseed(seed uint64) {
	state := seed
	r.s0 = splitmix64(&state)
	r.s1 = splitmix64(&state)
	r.s2 = splitmix64(&state)
	r.s3 = splitmix64(&state)
	// xoshiro must not start from the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives a new independent generator from r. The derived stream is a
// deterministic function of r's current state, so a fixed seed plus a fixed
// split order reproduces the whole tree of streams.
func (r *RNG) Split() *RNG {
	// Mix two outputs through splitmix64 so that consecutive Splits do not
	// hand out overlapping xoshiro orbits.
	seed := r.Uint64() ^ rotl(r.Uint64(), 32)
	return New(seed)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method (unbiased).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Bounded(uint64(n)))
}

// Bounded returns a uniform uint64 in [0, n) for n > 0 using Lemire's
// multiply-shift method: a single 128-bit multiply in the common case, with
// the (rare) rejection branch computing the `-n % n` threshold lazily. This
// is the random-neighbor primitive of the walk engine, so it must not
// branch-mispredict or divide on the fast path.
func (r *RNG) Bounded(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		hi = r.BoundedRetry(n, hi, lo)
	}
	return hi
}

// BoundedRetry is Bounded's rejection branch, for a loop that runs the
// fast path itself —
//
//	hi, lo := bits.Mul64(r.Uint64(), n)
//	if lo < n {
//		hi = r.BoundedRetry(n, hi, lo)
//	}
//
// — because Bounded is too large to inline. Given the first product
// (hi, lo) with lo < n, it redraws while lo falls below 2⁶⁴ mod n and
// returns the accepted high word, consuming exactly Bounded's draws.
func (r *RNG) BoundedRetry(n, hi, lo uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(r.Uint64(), n)
	}
	return hi
}

// Int31 returns a uniform int32 in [0, n) for n > 0. Slightly faster than
// Intn for the hot random-neighbor path where degrees fit in 32 bits.
func (r *RNG) Int31(n int32) int32 {
	return int32(r.Intn(int(n)))
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Geometric returns the number of consecutive successes of a Bernoulli(p)
// trial before the first failure: P[X = k] = p^k·(1−p) for k ≥ 0. It is the
// inverse-CDF method — one uniform draw replaces the whole run of per-trial
// Bernoullis, which is what lets the walk engine sample a √c-walk's length
// in O(1). Hot callers with a fixed p should precompute 1/ln(p) and use
// GeometricInv instead.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		panic("rng: Geometric with p >= 1")
	}
	return r.GeometricInv(1 / math.Log(p))
}

// GeometricInv is Geometric for callers that precomputed invLnP = 1/ln(p).
// P[X ≥ k] = P[1−U ≤ p^k] = p^k, so X = ⌊ln(1−U)/ln(p)⌋ is exact; U < 1
// keeps ln(1−U) finite, so the result is bounded by ≈ 53·|1/log₂(p)|.
func (r *RNG) GeometricInv(invLnP float64) int {
	return int(math.Log1p(-r.Float64()) * invLnP)
}

// geometricMaxTable caps a GeometricSampler's threshold table; draws beyond
// the table restart (geometric distributions are memoryless), so the cap
// trades a little tail-draw cost for bounded memory when p is close to 1.
const geometricMaxTable = 1024

// GeometricSampler draws Geometric(p) variates — the count of consecutive
// successes before the first failure — from a precomputed threshold table:
// thresh[k] ≈ p^{k+1}·2⁶⁴, so a single Uint64 draw compared against the
// table yields X with P[X ≥ k] = p^k at full 64-bit granularity. The scan
// costs E[X]+1 integer compares and no floating-point math; an inverse-CDF
// log call here showed up as 40% of the whole diagonal phase.
//
// A sampler is immutable after construction and safe to share across
// goroutines (each draw's state lives in the caller's RNG).
type GeometricSampler struct {
	thresh []uint64
}

// NewGeometricSampler builds the table for success probability p ∈ [0, 1).
func NewGeometricSampler(p float64) *GeometricSampler {
	if p < 0 || p >= 1 {
		panic("rng: GeometricSampler needs 0 <= p < 1")
	}
	gs := &GeometricSampler{}
	// thresh[k] = round(p^{k+1}·2⁶⁴); stop once the survival probability
	// rounds to zero at 64-bit granularity — beyond that X ≥ k is
	// impossible under the sampler, matching P ≈ p^k < 2⁻⁶⁴.
	pk := p
	for k := 0; k < geometricMaxTable; k++ {
		t := pk * (1 << 63) * 2 // p^{k+1}·2⁶⁴ without constant overflow
		if t < 1 {
			break
		}
		if t >= math.MaxUint64 {
			t = math.MaxUint64
		}
		gs.thresh = append(gs.thresh, uint64(t))
		pk *= p
	}
	return gs
}

// Sample draws one variate using r's stream.
func (gs *GeometricSampler) Sample(r *RNG) int {
	if len(gs.thresh) == 0 { // p == 0 (or rounds to it): X is always 0
		return 0
	}
	total := 0
	//lint:bounded memoryless restart fires only when u falls past the table cap; expected passes per sample ~ 1
	for {
		u := r.Uint64()
		k := 0
		for k < len(gs.thresh) && u < gs.thresh[k] {
			k++
		}
		total += k
		if k < len(gs.thresh) {
			return total
		}
		// Survived past the table: restart by memorylessness. Unreachable
		// unless p is so close to 1 that the table hit its cap.
	}
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
// Used only by generators, not by any algorithmic hot path.
func (r *RNG) NormFloat64() float64 {
	//lint:bounded polar rejection accepts with probability pi/4 per iteration; terminates with probability 1
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes xs in place.
func (r *RNG) Shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
