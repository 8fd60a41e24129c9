// Package linalg implements the transition-operator products at the heart
// of Linearization-style SimRank computation.
//
// P is the *reverse* transition matrix of the paper (Table 1):
//
//	P(i,j) = 1/d_in(v_j)  if v_i ∈ I(v_j), else 0.
//
// Probabilistically, applying P to a distribution moves a random walk to a
// uniformly random in-neighbor:  (Px)(u) = Σ_{u→v} x(v)/d_in(v).
// The transpose gathers:         (Pᵀx)(v) = (1/d_in(v)) Σ_{u∈I(v)} x(u).
//
// Operator caches 1/d_in and provides dense (optionally parallel) and
// sparse products; the sparse forms realize the paper's sparse
// linearization (§3.2) where per-level vectors stay truncated.
//
// Determinism contract: for a fixed input, every product is bit-for-bit
// identical regardless of the configured worker count. Dense products
// compute each output entry independently, so sharding them is trivially
// safe. Sparse products shard over the input's nonzeros with boundaries
// that depend only on the input size (never on Workers) and merge the
// per-shard partial accumulators in shard order, which pins the
// floating-point addition order.
//
// ApplyPSparse has two kernels behind that contract. While its input has
// at most n/16 nonzeros it scatters each nonzero over its column's
// in-neighbors, as above. Past that (the rule reads the input alone) it
// gathers: it folds w(v) = x(v)·(1/d_in(v))·scale into a dense scratch
// once, then sums w over each row u's out-list, in ascending v. The
// scatter delivers u's terms in the same order — x.Idx ascends, and the
// terms of one shard land in that shard's partial — and merges the
// partials in shard order. So the gather keeps one running partial per
// row, adds it into the row's total each time v reaches the next shard's
// first input index, and rounds exactly like the scatter: the bits are
// the same, for the nonnegative inputs and thresholds every caller
// passes (a term of zero, which the scatter skips, leaves a nonnegative
// sum's bits as they are). Each row of the gather is computed on its own,
// so its rows split across workers freely.
package linalg

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/sparse"
)

// Sparse products are cut into at most maxSparseShards shards of at least
// sparseShardMin input nonzeros each. The shard count is a function of the
// input size only — NOT of the worker count — because the shard-order merge
// fixes the floating-point addition order: changing the boundaries would
// change the result bits, and the engine promises identical results at any
// parallelism.
const (
	maxSparseShards = 8
	sparseShardMin  = 512
)

// gatherFrom is the divisor of ApplyPSparse's kernel rule: an input with
// more than n/gatherFrom nonzeros is gathered rather than scattered. On
// the DB stand-in the exact forward pass of PRSim and ParSim gathers from
// the product that builds level 5, 6 or 7 on, and its levels then fill
// the graph; ExactSim's θ-truncated levels at ε = 0.02 stay below 60
// entries.
const gatherFrom = 16

// sparseShards returns the shard count for an input with nnz nonzeros.
func sparseShards(nnz int) int {
	s := nnz / sparseShardMin
	if s > maxSparseShards {
		s = maxSparseShards
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardBounds returns the half-open entry range of shard s of `shards`
// equal partitions of [0, nnz).
func shardBounds(nnz, shards, s int) (lo, hi int) {
	lo = s * nnz / shards
	hi = (s + 1) * nnz / shards
	return
}

// Operator applies P and Pᵀ for one graph. It is immutable after creation
// (its scratch pools are internally synchronized) and safe for concurrent
// use; per-call scratch is owned by the caller.
type Operator struct {
	g       *graph.Graph
	invDin  []float64
	workers int

	// accPool recycles the per-shard accumulators of the parallel sparse
	// kernels (and is exported via GetAccumulator for callers that want
	// per-query scratch without per-query allocation).
	accPool sync.Pool
	// gatherPool recycles ApplyPSparse's gather scratch.
	gatherPool sync.Pool
}

// gatherScratch is the dense scratch of one gather: w holds the folded
// input and is all zero between uses; row is overwritten whole by every
// use.
type gatherScratch struct {
	w, row []float64
}

// NewOperator builds an operator over g. workers ≤ 1 selects serial
// execution; larger values shard products across that many goroutines.
// The paper's experiments run single-threaded for parity (§4, "single
// thread mode"), so the harness uses workers = 1.
func NewOperator(g *graph.Graph, workers int) *Operator {
	if workers < 1 {
		workers = 1
	}
	inv := make([]float64, g.N())
	for v := 0; v < g.N(); v++ {
		if d := g.InDegree(int32(v)); d > 0 {
			inv[v] = 1 / float64(d)
		}
	}
	return &Operator{g: g, invDin: inv, workers: workers}
}

// Graph returns the underlying graph.
func (op *Operator) Graph() *graph.Graph { return op.g }

// Workers returns the configured parallelism.
func (op *Operator) Workers() int { return op.workers }

// GetAccumulator returns a pooled accumulator sized to the graph; return it
// with PutAccumulator. Pooled accumulators are always handed out reset.
func (op *Operator) GetAccumulator() *sparse.Accumulator {
	if a, ok := op.accPool.Get().(*sparse.Accumulator); ok {
		return a
	}
	return sparse.NewAccumulator(op.g.N())
}

// PutAccumulator recycles a; a must be reset (Build, Reset and DrainInto
// all leave it reset).
func (op *Operator) PutAccumulator(a *sparse.Accumulator) { op.accPool.Put(a) }

// shard invokes fn(lo, hi) over a partition of [0, n) using the configured
// worker count.
func (op *Operator) shard(n int, fn func(lo, hi int32)) {
	if op.workers == 1 || n < 4096 {
		fn(0, int32(n))
		return
	}
	var wg sync.WaitGroup
	chunk := (n + op.workers - 1) / op.workers
	for w := 0; w < op.workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int32) {
			defer wg.Done()
			fn(lo, hi)
		}(int32(lo), int32(hi))
	}
	wg.Wait()
}

// ApplyP computes dst = scale·P·x. dst and x must have length n and must
// not alias.
func (op *Operator) ApplyP(dst, x []float64, scale float64) {
	g := op.g
	op.shard(g.N(), func(lo, hi int32) {
		for u := lo; u < hi; u++ {
			s := 0.0
			for _, v := range g.OutNeighbors(u) {
				s += x[v] * op.invDin[v]
			}
			dst[u] = scale * s
		}
	})
}

// ApplyPT computes dst = scale·Pᵀ·x. dst and x must have length n and must
// not alias.
func (op *Operator) ApplyPT(dst, x []float64, scale float64) {
	g := op.g
	op.shard(g.N(), func(lo, hi int32) {
		for v := lo; v < hi; v++ {
			s := 0.0
			for _, u := range g.InNeighbors(v) {
				s += x[u]
			}
			dst[v] = scale * s * op.invDin[v]
		}
	})
}

// runShards executes process(shard, accumulator) for every shard and drains
// the per-shard partials into acc in shard order. With one shard (or one
// worker) everything runs on the calling goroutine; the chunking and merge
// order are identical either way, so the bits are too.
func (op *Operator) runShards(shards int, acc *sparse.Accumulator, process func(s int, part *sparse.Accumulator)) {
	workers := op.workers
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		part := op.GetAccumulator()
		for s := 0; s < shards; s++ {
			process(s, part)
			part.DrainInto(acc)
		}
		op.PutAccumulator(part)
		return
	}
	parts := make([]*sparse.Accumulator, shards)
	for s := range parts {
		parts[s] = op.GetAccumulator()
	}
	var wg sync.WaitGroup
	var next int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int(atomic.AddInt64(&next, 1) - 1); s < shards; s = int(atomic.AddInt64(&next, 1) - 1) {
				process(s, parts[s])
			}
		}()
	}
	wg.Wait()
	for _, part := range parts {
		part.DrainInto(acc)
		op.PutAccumulator(part)
	}
}

// ApplyPSparse computes scale·P·x for a sparse x, truncating result entries
// ≤ threshold (pass 0 to keep all). acc is caller-owned scratch sized to n.
// An input with more than n/16 nonzeros is gathered row by row; a smaller
// one is scattered, sharded over its nonzeros across the configured
// workers. See the package comment for why both kernels give the same
// bits, at any worker count.
func (op *Operator) ApplyPSparse(x *sparse.Vector, acc *sparse.Accumulator, scale, threshold float64) sparse.Vector {
	if x.Len() > op.g.N()/gatherFrom {
		return op.gatherP(x, scale, threshold)
	}
	return op.scatterP(x, acc, scale, threshold)
}

// scatterP is ApplyPSparse's scatter kernel.
func (op *Operator) scatterP(x *sparse.Vector, acc *sparse.Accumulator, scale, threshold float64) sparse.Vector {
	inOff, inAdj := op.g.InCSR()
	nnz := x.Len()
	shards := sparseShards(nnz)
	scatter := func(lo, hi int, out *sparse.Accumulator) {
		for i := lo; i < hi; i++ {
			v := x.Idx[i]
			w := x.Val[i] * op.invDin[v] * scale
			if w == 0 {
				continue
			}
			for _, u := range inAdj[inOff[v]:inOff[v+1]] {
				out.Add(u, w)
			}
		}
	}
	if shards == 1 {
		scatter(0, nnz, acc)
		return acc.Build(threshold)
	}
	op.runShards(shards, acc, func(s int, part *sparse.Accumulator) {
		lo, hi := shardBounds(nnz, shards, s)
		scatter(lo, hi, part)
	})
	return acc.Build(threshold)
}

// gatherP is ApplyPSparse's gather kernel; the package comment says why
// its bits are scatterP's.
func (op *Operator) gatherP(x *sparse.Vector, scale, threshold float64) sparse.Vector {
	n := op.g.N()
	sc, ok := op.gatherPool.Get().(*gatherScratch)
	if !ok {
		sc = &gatherScratch{w: make([]float64, n), row: make([]float64, n)}
	}
	w, row := sc.w, sc.row
	for i, v := range x.Idx {
		w[v] = x.Val[i] * op.invDin[v] * scale
	}
	// next[s] is the first input index of shard s+1; the last entry is a
	// sentinel no node id reaches.
	nnz := x.Len()
	shards := sparseShards(nnz)
	var next [maxSparseShards]int32
	for s := 1; s < shards; s++ {
		lo, _ := shardBounds(nnz, shards, s)
		next[s-1] = x.Idx[lo]
	}
	next[shards-1] = math.MaxInt32
	outOff, outAdj := op.g.OutCSR()
	op.shard(n, func(lo, hi int32) {
		for u := lo; u < hi; u++ {
			total, part, s := 0.0, 0.0, 0
			for _, v := range outAdj[outOff[u]:outOff[u+1]] {
				for v >= next[s] {
					total += part
					part = 0
					s++
				}
				part += w[v]
			}
			row[u] = total + part
		}
	})
	for _, v := range x.Idx {
		w[v] = 0
	}
	out := sparse.FromDense(row, threshold)
	op.gatherPool.Put(sc)
	return out
}

// ApplyPTSparse computes scale·Pᵀ·x for a sparse x with truncation, sharded
// like ApplyPSparse's scatter.
func (op *Operator) ApplyPTSparse(x *sparse.Vector, acc *sparse.Accumulator, scale, threshold float64) sparse.Vector {
	outOff, outAdj := op.g.OutCSR()
	nnz := x.Len()
	shards := sparseShards(nnz)
	scatter := func(lo, hi int, out *sparse.Accumulator) {
		for i := lo; i < hi; i++ {
			u := x.Idx[i]
			w := x.Val[i] * scale
			for _, v := range outAdj[outOff[u]:outOff[u+1]] {
				out.Add(v, w*op.invDin[v])
			}
		}
	}
	if shards == 1 {
		scatter(0, nnz, acc)
		return acc.Build(threshold)
	}
	op.runShards(shards, acc, func(s int, part *sparse.Accumulator) {
		lo, hi := shardBounds(nnz, shards, s)
		scatter(lo, hi, part)
	})
	return acc.Build(threshold)
}

// Frontier tracks the set of possibly-nonzero entries of a dense vector for
// ApplyPTFrontier. Once the set outgrows the sparse regime the frontier
// flips to dense and stays coarse ("everything may be nonzero"). The zero
// set is represented exactly: entries outside the frontier are guaranteed
// zero in the tracked vector.
type Frontier struct {
	mark  []bool
	list  []int32
	dense bool
}

// NewFrontier returns an empty frontier over index space [0, n).
func NewFrontier(n int) *Frontier {
	return &Frontier{mark: make([]bool, n)}
}

// Reset empties the frontier (back to the sparse regime).
func (f *Frontier) Reset() {
	for _, v := range f.list {
		f.mark[v] = false
	}
	f.list = f.list[:0]
	f.dense = false
}

// Add records that position i may be nonzero.
func (f *Frontier) Add(i int32) {
	if f.dense || f.mark[i] {
		return
	}
	f.mark[i] = true
	f.list = append(f.list, i)
}

// Dense reports whether the frontier has given up tracking (every position
// may be nonzero).
func (f *Frontier) Dense() bool { return f.dense }

// MarkDense flips the frontier to the dense regime without scanning —
// for callers whose tracked vector's support became unknown (e.g. an
// aborted computation left it partially written).
func (f *Frontier) MarkDense() { f.dense = true }

// Len returns the tracked position count (meaningless once Dense).
func (f *Frontier) Len() int { return len(f.list) }

// ApplyPTFrontier computes dst = scale·Pᵀ·x like ApplyPT, exploiting a
// frontier xf that bounds x's support: while the support is small — the
// early levels of ExactSim's backward accumulation, where s has only
// reached a few hops from the source — it scatters over the frontier's
// out-edges instead of gathering over all n rows, skipping the (dense)
// work for nodes the backward wave has not reached. dstf is reset and
// rebuilt to bound dst's support; stale dst entries from a previous use
// are zeroed through it, so callers can ping-pong two (vector, frontier)
// pairs without clearing anything themselves.
//
// Once the frontier exceeds n/8 the call falls back to the dense gather
// (writing every entry) and marks dstf dense; the cutoff depends only on
// the input, preserving the package's worker-count determinism.
func (op *Operator) ApplyPTFrontier(dst, x []float64, scale float64, xf, dstf *Frontier) {
	n := op.g.N()
	if xf.dense || len(xf.list) > n/8 {
		op.ApplyPT(dst, x, scale) // writes all of dst; stale entries gone
		dstf.Reset()
		dstf.dense = true
		return
	}
	// Zero dst's stale support before rebuilding it.
	if dstf.dense {
		clear(dst)
	} else {
		for _, v := range dstf.list {
			dst[v] = 0
		}
	}
	dstf.Reset()
	outOff, outAdj := op.g.OutCSR()
	for _, u := range xf.list {
		w := x[u] * scale
		if w == 0 {
			continue
		}
		for _, v := range outAdj[outOff[u]:outOff[u+1]] {
			dstf.Add(v)
			dst[v] += w * op.invDin[v]
		}
	}
}

// DenseP materializes P as a dense n×n row-major matrix. Intended only for
// tests and the power-method baseline on small graphs.
func DenseP(g *graph.Graph) [][]float64 {
	n := g.N()
	mat := make([][]float64, n)
	for i := range mat {
		mat[i] = make([]float64, n)
	}
	for j := int32(0); j < int32(n); j++ {
		d := g.InDegree(j)
		if d == 0 {
			continue
		}
		w := 1 / float64(d)
		for _, i := range g.InNeighbors(j) {
			mat[i][j] = w
		}
	}
	return mat
}
