package main

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// newRand returns the seeded random stream for one named input of a run.
// Each input draws from its own stream, so adding a draw to one input
// never shifts another, and the same seed always yields the same inputs.
func newRand(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// arrivals returns the due offsets of a constant-rate open loop:
// round(rate × window) arrivals, evenly spaced from a seeded phase within
// the first gap. The workloads that measure the cost of a request below
// capacity use it: at ~100 requests a window, Poisson bursts made their
// p90 two to three times their median and its run-to-run spread ~30%,
// so bursts, not the system, would set the tail.
func arrivals(r *rand.Rand, rate float64, window time.Duration) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	gap := float64(time.Second) / rate
	phase := r.Float64() * gap
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(phase + float64(i)*gap)
	}
	return out
}

// poisson returns the due offsets of a Poisson open loop: a Poisson
// process of the given rate over the window, conditioned on its count
// being round(rate × window). The n+1 gaps are seeded exponential draws
// rescaled to span the window, which places the arrivals as n sorted
// uniform points: the bursts and lulls of independent users, while every
// run records the same number of requests.
func poisson(r *rand.Rand, rate float64, window time.Duration) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		total += gaps[i]
	}
	out := make([]time.Duration, n)
	var at float64
	for i := range out {
		at += gaps[i]
		out[i] = time.Duration(at / total * float64(window))
	}
	return out
}

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s. Unlike math/rand's
// Zipf it accepts s = 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	return min(k, len(z.cdf)-1)
}

// distinct returns k distinct values of [0, n) in random order.
func distinct(r *rand.Rand, n, k int) []int32 {
	perm := r.Perm(n)[:k]
	out := make([]int32, k)
	for i, v := range perm {
		out[i] = int32(v)
	}
	return out
}
