// Package walk implements the √c-walk primitives behind every Monte-Carlo
// component in this repository.
//
// A √c-walk (paper §2, MC) moves, at each step, to a uniformly random
// in-neighbor with probability √c and stops otherwise; a node without
// in-neighbors forces a stop. Two √c-walks "meet" if they occupy the same
// node at the same step while both are still alive, and
//
//	S(i,j) = Pr[√c-walks from v_i and v_j meet]          (paper eq. 2)
//	D(k,k) = 1 − Pr[two √c-walks from v_k meet at ℓ ≥ 1] (paper §3.2)
//
// are the identities the MC baseline and the D estimators build on.
//
// The engine is built for the diagonal phase's throughput: millions of walk
// pairs per query at tight ε. Four structural choices keep the per-step
// cost to one bounded-random draw and two array loads:
//
//  1. Geometric length sampling. The per-step survival Bernoullis of a
//     √c-walk are i.i.d. and independent of the position draws, so the
//     number of survived steps is Geometric(√c) and can be drawn up front
//     with a single draw (rng.GeometricSampler). A walk then takes exactly
//     min(geometric length, dead-end time) position steps.
//  2. Flat CSR indexing. The walker captures the graph's inOff/inAdj arrays
//     once (graph.InCSR) and indexes them directly, instead of materializing
//     an InNeighbors slice header per step.
//  3. Lemire bounded sampling. Random neighbor selection uses
//     rng.Bounded — one 128-bit multiply, no modulo, unbiased.
//  4. One loop per run of walk pairs. PairMeets runs every trial of a
//     diag sample chunk in one loop, with the stream copied into a local
//     for the whole run and Bounded's fast path written out, so a draw is
//     the inlined xoshiro update on that local and one multiply: no call,
//     and no trip through the walker's pointer. The local lives in the
//     loop's stack frame, not in registers (the inlined Uint64 takes its
//     address); rng still owns the update, the rejection branch
//     (rng.RNG.BoundedRetry) and the geometric table scan.
package walk

import (
	"math"
	"math/bits"

	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/rng"
)

// Walker bundles a graph, decay factor, and RNG stream. It is not safe for
// concurrent use: parallel drivers derive one Walker per worker via Fork.
type Walker struct {
	g     *graph.Graph
	inOff []int64
	inAdj []int32
	sqrtC float64
	// geo samples √c-walk lengths: Geometric(√c) via an integer threshold
	// table, one Uint64 draw per walk. geoPair samples the joint survival
	// of a walk *pair*: min of two independent Geometric(√c) lengths is
	// Geometric(c), so one draw covers both walks. Immutable; shared
	// across Forks.
	geo     *rng.GeometricSampler
	geoPair *rng.GeometricSampler
	r       *rng.RNG
}

// NewWalker returns a walker over g with SimRank decay c, seeded
// deterministically.
func NewWalker(g *graph.Graph, c float64, seed uint64) *Walker {
	if c <= 0 || c >= 1 {
		panic("walk: decay factor must lie in (0,1)")
	}
	inOff, inAdj := g.InCSR()
	sqrtC := math.Sqrt(c)
	return &Walker{
		g:       g,
		inOff:   inOff,
		inAdj:   inAdj,
		sqrtC:   sqrtC,
		geo:     rng.NewGeometricSampler(sqrtC),
		geoPair: rng.NewGeometricSampler(c),
		r:       rng.New(seed),
	}
}

// Fork derives an independent walker for another goroutine.
func (w *Walker) Fork() *Walker {
	f := *w
	f.r = w.r.Split()
	return &f
}

// RNG exposes the walker's random stream (used by samplers built on top).
func (w *Walker) RNG() *rng.RNG { return w.r }

// length draws the number of steps a √c-walk survives: Geometric(√c), one
// uniform draw.
func (w *Walker) length() int {
	return w.geo.Sample(w.r)
}

// stepIn moves to a uniformly random in-neighbor of v; ok=false on a dead
// end. Survival is NOT sampled here — callers budget steps via length().
func (w *Walker) stepIn(v graph.NodeID) (graph.NodeID, bool) {
	lo, hi := w.inOff[v], w.inOff[v+1]
	if lo == hi {
		return v, false
	}
	return w.inAdj[lo+int64(w.r.Bounded(uint64(hi-lo)))], true
}

// Trajectory simulates one √c-walk from start, recording at most maxSteps
// moves. The returned slice begins with start; its length-1 is the number
// of steps taken. dst is reused if it has capacity.
func (w *Walker) Trajectory(start graph.NodeID, maxSteps int, dst []graph.NodeID) []graph.NodeID {
	dst = append(dst[:0], start)
	steps := w.length()
	if steps > maxSteps {
		steps = maxSteps
	}
	v := start
	for t := 0; t < steps; t++ {
		next, alive := w.stepIn(v)
		if !alive {
			break
		}
		v = next
		dst = append(dst, v)
	}
	return dst
}

// TrajectoriesMeet reports whether two stored √c-walk trajectories meet:
// same node at the same step index while both are alive (indices past a
// trajectory's end are "stopped"). Index 0 counts, so identical sources
// meet trivially — callers compare distinct sources.
func TrajectoriesMeet(a, b []graph.NodeID) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for t := 0; t < n; t++ {
		if a[t] == b[t] {
			return true
		}
	}
	return false
}

// PairMeetsFrom simulates two fresh √c-walks from x and y (both alive at
// step 0, positions distinct unless x==y) and reports whether they ever
// meet at a step ≥ 1. This is the MC estimator's primitive for S(x,y) when
// combined with the step-0 check.
//
// The pair can only meet while both walks are alive, and
// min(Geometric(√c), Geometric(√c)) = Geometric(c), so a single geometric
// draw budgets the whole pair; dead ends cut it short.
func (w *Walker) PairMeetsFrom(x, y graph.NodeID) bool {
	steps := w.geoPair.Sample(w.r)
	inOff, inAdj := w.inOff, w.inAdj
	for t := 0; t < steps; t++ {
		xlo, xhi := inOff[x], inOff[x+1]
		if xlo == xhi {
			return false
		}
		ylo, yhi := inOff[y], inOff[y+1]
		if ylo == yhi {
			return false
		}
		x = inAdj[xlo+int64(w.r.Bounded(uint64(xhi-xlo)))]
		y = inAdj[ylo+int64(w.r.Bounded(uint64(yhi-ylo)))]
		if x == y {
			return true
		}
	}
	return false
}

// PairMeets runs `pairs` walk-pair trials of paper Algorithm 3 from node k
// and returns how many met. Each trial is the special walk pair: both
// walks take `prefix` forced (non-stop) steps, and the trial counts zero
// if either hits a dead end there (survival past it is impossible under
// the true measure) or the two meet at a step 1..prefix (those meetings
// belong to the deterministically computed Σ Z_ℓ part). Otherwise the two
// continue as ordinary √c-walks, as in PairMeetsFrom, and the trial counts
// one if they meet. With prefix 0 a trial is exactly the Bernoulli trial
// of paper Algorithm 2, which meets with probability 1 − D(k,k), and it
// draws exactly that trial's random numbers. The trials run in one loop
// on a local copy of the stream (see the package comment).
func (w *Walker) PairMeets(k graph.NodeID, prefix, pairs int) int64 {
	r := *w.r
	inOff, inAdj := w.inOff, w.inAdj
	var met int64
	for range pairs {
		x, y := k, k
		left, tail := prefix, false // steps left in the current phase
		for left > 0 || !tail {
			if left == 0 { // the prefix is done: the pair survives Geometric(c) steps
				left, tail = w.geoPair.Sample(&r), true
				continue
			}
			xlo, xhi := inOff[x], inOff[x+1]
			ylo, yhi := inOff[y], inOff[y+1]
			if xlo == xhi || ylo == yhi {
				break
			}
			n := uint64(xhi - xlo)
			hi, lo := bits.Mul64(r.Uint64(), n)
			if lo < n {
				hi = r.BoundedRetry(n, hi, lo)
			}
			x = inAdj[xlo+int64(hi)]
			n = uint64(yhi - ylo)
			hi, lo = bits.Mul64(r.Uint64(), n)
			if lo < n {
				hi = r.BoundedRetry(n, hi, lo)
			}
			y = inAdj[ylo+int64(hi)]
			if x == y {
				if tail {
					met++
				}
				break
			}
			left--
		}
	}
	*w.r = r
	return met
}

// StopDistribution estimates, by simulation, the probability that a √c-walk
// from source stops at each node (the full PPR vector π_source). Used by
// tests to cross-validate internal/ppr against the walk process itself.
func (w *Walker) StopDistribution(source graph.NodeID, samples int) []float64 {
	counts := make([]float64, w.g.N())
	for s := 0; s < samples; s++ {
		v := source
		steps := w.length()
		for t := 0; t < steps; t++ {
			next, alive := w.stepIn(v)
			if !alive {
				break
			}
			v = next
		}
		counts[v]++
	}
	for i := range counts {
		counts[i] /= float64(samples)
	}
	return counts
}

// MeetFraction runs `samples` Algorithm-2 trials at node k and returns the
// fraction that met (an estimator of 1 − D(k,k)).
func (w *Walker) MeetFraction(k graph.NodeID, samples int) float64 {
	return float64(w.PairMeets(k, 0, samples)) / float64(samples)
}
