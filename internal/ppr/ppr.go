// Package ppr computes the ℓ-hop Personalized PageRank vectors that drive
// ExactSim's forward phase, plus the walk-decay PageRank used by the PRSim
// baseline for hub selection.
//
// Following the paper's notation, the ℓ-hop PPR vector of source v_i is
//
//	π_i^ℓ = (1−√c) (√c·P)^ℓ e_i ,
//
// i.e. π_i^ℓ(k) is the probability that a √c-walk from v_i stops at v_k in
// exactly ℓ steps. The full PPR vector is π_i = Σ_ℓ π_i^ℓ with Σ_k π_i(k)
// ≤ 1 (dead ends absorb the deficit).
package ppr

import (
	"context"
	"math"

	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/linalg"
	"github.com/exactsim/exactsim/internal/sparse"
)

// Config controls a hop-vector computation.
type Config struct {
	// C is the SimRank decay factor (the paper uses 0.6 throughout its
	// evaluation; 0.6–0.8 are the typical settings).
	C float64
	// L is the number of hops. ExactSim sets L = ⌈log_{1/c}(2/ε)⌉.
	L int
	// Threshold sparsifies each hop vector: entries ≤ Threshold are
	// dropped after each application of √c·P. Zero keeps everything
	// (the "basic" ExactSim behaviour); the optimized algorithm passes
	// (1−√c)²·ε (paper Lemma 2).
	Threshold float64
}

// Levels returns L = ⌈log_{1/c}(2/ε)⌉, the truncation level that bounds the
// tail error by ε/2 (paper Algorithm 1, line 1).
func Levels(c, eps float64) int {
	if eps <= 0 || c <= 0 || c >= 1 {
		panic("ppr: Levels requires 0<c<1 and eps>0")
	}
	return int(math.Ceil(math.Log(2/eps) / math.Log(1/c)))
}

// Hops returns the sparse hop vectors [π^0, π^1, …, π^L] for the source.
func Hops(op *linalg.Operator, source graph.NodeID, cfg Config) []sparse.Vector {
	out, _ := HopsCtx(context.Background(), op, source, cfg)
	return out
}

// HopsCtx is Hops with per-level cancellation: the context is checked
// before every application of √c·P, so a deadline interrupts the forward
// phase after at most one level's worth of work. Scratch comes from the
// operator's pools, so a sustained query load does not allocate O(n) per
// forward phase beyond the levels it returns.
func HopsCtx(ctx context.Context, op *linalg.Operator, source graph.NodeID, cfg Config) ([]sparse.Vector, error) {
	sqrtC := math.Sqrt(cfg.C)
	acc := op.GetAccumulator()
	defer op.PutAccumulator(acc)
	out := make([]sparse.Vector, 0, cfg.L+1)
	// Each ApplyPSparse builds a fresh vector, so levels can be retained
	// without cloning.
	cur := sparse.Vector{Idx: []int32{source}, Val: []float64{1 - sqrtC}}
	out = append(out, cur)
	for ell := 1; ell <= cfg.L; ell++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur = op.ApplyPSparse(&cur, acc, sqrtC, cfg.Threshold)
		out = append(out, cur)
		if cur.Len() == 0 {
			// all mass absorbed or truncated; remaining levels are zero
			for len(out) <= cfg.L {
				out = append(out, sparse.Vector{})
			}
			break
		}
	}
	return out, nil
}

// HopsDense returns dense hop vectors; used by the basic (unoptimized)
// ExactSim variant and by tests.
func HopsDense(op *linalg.Operator, source graph.NodeID, cfg Config) [][]float64 {
	out, _ := HopsDenseCtx(context.Background(), op, source, cfg)
	return out
}

// HopsDenseCtx is HopsDense with per-level cancellation.
func HopsDenseCtx(ctx context.Context, op *linalg.Operator, source graph.NodeID, cfg Config) ([][]float64, error) {
	sqrtC := math.Sqrt(cfg.C)
	n := op.Graph().N()
	out := make([][]float64, cfg.L+1)
	cur := make([]float64, n)
	cur[source] = 1 - sqrtC
	out[0] = append([]float64(nil), cur...)
	next := make([]float64, n)
	for ell := 1; ell <= cfg.L; ell++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		op.ApplyP(next, cur, sqrtC)
		cur, next = next, cur
		out[ell] = append([]float64(nil), cur...)
	}
	return out, nil
}

// Sum aggregates hop vectors into the full PPR vector π_i = Σ_ℓ π_i^ℓ.
// Its scratch comes from the operator's accumulator pool.
func Sum(op *linalg.Operator, hops []sparse.Vector) sparse.Vector {
	acc := op.GetAccumulator()
	defer op.PutAccumulator(acc)
	for i := range hops {
		h := &hops[i]
		for j, idx := range h.Idx {
			acc.Add(idx, h.Val[j])
		}
	}
	return acc.Build(0)
}

// TotalBytes reports the memory held by a hop-vector stack, for the
// paper's Table 3 accounting.
func TotalBytes(hops []sparse.Vector) int64 {
	var b int64
	for i := range hops {
		b += hops[i].Bytes()
	}
	return b
}

// WalkPageRank returns the decay-√c PageRank vector: the average over all
// sources of the full PPR vector, equivalently the stop distribution of a
// √c-walk started from a uniformly random node. PRSim ranks hub nodes by
// this quantity, and its complexity bound is O(n·‖π‖²·log n/ε²).
func WalkPageRank(op *linalg.Operator, c float64, L int) []float64 {
	out, _ := WalkPageRankCtx(context.Background(), op, c, L)
	return out
}

// WalkPageRankCtx is WalkPageRank with per-level cancellation, so PRSim's
// hub selection — L dense products over the whole graph — honors the same
// deadline contract as every other preprocessing loop.
func WalkPageRankCtx(ctx context.Context, op *linalg.Operator, c float64, L int) ([]float64, error) {
	sqrtC := math.Sqrt(c)
	n := op.Graph().N()
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = (1 - sqrtC) / float64(n)
	}
	total := append([]float64(nil), cur...)
	next := make([]float64, n)
	for ell := 1; ell <= L; ell++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		op.ApplyP(next, cur, sqrtC)
		cur, next = next, cur
		for i, v := range cur {
			total[i] += v
		}
	}
	return total, nil
}

// Norm2Squared returns ‖x‖² = Σ x(k)² of a dense vector.
func Norm2Squared(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}
