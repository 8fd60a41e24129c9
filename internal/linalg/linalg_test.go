package linalg

import (
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/exactsim/exactsim/internal/gen"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/rng"
	"github.com/exactsim/exactsim/internal/sparse"
)

// naiveApply multiplies the dense matrix by x.
func naiveApply(mat [][]float64, x []float64, scale float64) []float64 {
	n := len(mat)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			y[i] += mat[i][j] * x[j]
		}
	}
	for i := range y {
		y[i] *= scale
	}
	return y
}

// naiveTranspose returns matᵀ.
func naiveTranspose(mat [][]float64) [][]float64 {
	n := len(mat)
	t := make([][]float64, n)
	for i := range t {
		t[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			t[i][j] = mat[j][i]
		}
	}
	return t
}

func randomDense(r *rng.RNG, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()
	}
	return x
}

func randomGraph(r *rng.RNG, n, m int) *graph.Graph {
	b := graph.NewBuilder(n).Reserve(m)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Build()
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

func TestApplyPMatchesDense(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, 2+r.Intn(40), r.Intn(200))
		op := NewOperator(g, 1)
		P := DenseP(g)
		x := randomDense(r, g.N())
		got := make([]float64, g.N())
		op.ApplyP(got, x, 0.7)
		want := naiveApply(P, x, 0.7)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Fatalf("trial %d: ApplyP differs from dense by %g", trial, d)
		}
	}
}

func TestApplyPTMatchesDense(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, 2+r.Intn(40), r.Intn(200))
		op := NewOperator(g, 1)
		PT := naiveTranspose(DenseP(g))
		x := randomDense(r, g.N())
		got := make([]float64, g.N())
		op.ApplyPT(got, x, 0.9)
		want := naiveApply(PT, x, 0.9)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Fatalf("trial %d: ApplyPT differs from dense by %g", trial, d)
		}
	}
}

func TestSparseMatchesDense(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, 2+r.Intn(40), r.Intn(150))
		op := NewOperator(g, 1)
		n := g.N()
		acc := sparse.NewAccumulator(n)
		dense := make([]float64, n)
		// sparse input: a few entries
		var sv sparse.Vector
		for i := 0; i < n; i += 1 + r.Intn(3) {
			val := r.Float64()
			sv.Idx = append(sv.Idx, int32(i))
			sv.Val = append(sv.Val, val)
			dense[i] = val
		}
		gotP := op.ApplyPSparse(&sv, acc, 0.77, 0)
		wantP := make([]float64, n)
		op.ApplyP(wantP, dense, 0.77)
		if d := maxAbsDiff(gotP.ToDense(n), wantP); d > 1e-12 {
			t.Fatalf("trial %d: sparse P differs by %g", trial, d)
		}
		gotPT := op.ApplyPTSparse(&sv, acc, 0.77, 0)
		wantPT := make([]float64, n)
		op.ApplyPT(wantPT, dense, 0.77)
		if d := maxAbsDiff(gotPT.ToDense(n), wantPT); d > 1e-12 {
			t.Fatalf("trial %d: sparse PT differs by %g", trial, d)
		}
	}
}

func TestSparseTruncation(t *testing.T) {
	g := gen.Star(10)
	op := NewOperator(g, 1)
	acc := sparse.NewAccumulator(g.N())
	x := sparse.Vector{Idx: []int32{0}, Val: []float64{1}}
	// From the center, P moves mass to the center's in-neighbors (leaves),
	// each getting 1/d_in(leaf)=1 share scaled... verify truncation drops
	// small entries.
	y := op.ApplyPSparse(&x, acc, 1, 0)
	if y.Len() == 0 {
		t.Fatal("no mass propagated")
	}
	yTrunc := op.ApplyPSparse(&x, acc, 1, 2.0) // everything ≤ 2 dropped
	if yTrunc.Len() != 0 {
		t.Fatalf("truncation kept %d entries", yTrunc.Len())
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	r := rng.New(5)
	g := randomGraph(r, 9000, 60000) // above the parallel threshold
	x := randomDense(r, g.N())
	serial := NewOperator(g, 1)
	par := NewOperator(g, 4)
	a := make([]float64, g.N())
	b := make([]float64, g.N())
	serial.ApplyP(a, x, 0.6)
	par.ApplyP(b, x, 0.6)
	if d := maxAbsDiff(a, b); d != 0 {
		t.Fatalf("parallel ApplyP differs by %g", d)
	}
	serial.ApplyPT(a, x, 0.6)
	par.ApplyPT(b, x, 0.6)
	if d := maxAbsDiff(a, b); d != 0 {
		t.Fatalf("parallel ApplyPT differs by %g", d)
	}
}

func TestSparseParallelBitIdentical(t *testing.T) {
	// The sparse kernels promise bit-identical results at every worker
	// count: shard boundaries are a function of the input's nonzero count
	// and partials merge in shard order. Exercise inputs straddling the
	// shard thresholds (1 shard, a few shards, the max).
	r := rng.New(7)
	g := randomGraph(r, 8000, 64000)
	for _, nnz := range []int{10, 600, 2000, 8000} {
		var sv sparse.Vector
		seen := make(map[int32]bool)
		for len(sv.Idx) < nnz {
			idx := int32(r.Intn(g.N()))
			if seen[idx] {
				continue
			}
			seen[idx] = true
			sv.Idx = append(sv.Idx, idx)
			sv.Val = append(sv.Val, r.Float64())
		}
		// kernel inputs must be index-sorted like all Vectors
		sorted := sv.Clone()
		sortVector(&sorted)

		ref := NewOperator(g, 1)
		refAcc := sparse.NewAccumulator(g.N())
		wantP := ref.ApplyPSparse(&sorted, refAcc, 0.77, 0)
		wantPT := ref.ApplyPTSparse(&sorted, refAcc, 0.77, 0)
		for _, workers := range []int{2, 3, 8} {
			op := NewOperator(g, workers)
			acc := sparse.NewAccumulator(g.N())
			gotP := op.ApplyPSparse(&sorted, acc, 0.77, 0)
			if !vectorsBitEqual(&wantP, &gotP) {
				t.Fatalf("nnz=%d workers=%d: ApplyPSparse not bit-identical to serial", nnz, workers)
			}
			gotPT := op.ApplyPTSparse(&sorted, acc, 0.77, 0)
			if !vectorsBitEqual(&wantPT, &gotPT) {
				t.Fatalf("nnz=%d workers=%d: ApplyPTSparse not bit-identical to serial", nnz, workers)
			}
		}
	}
}

// TestGatherScatterBitIdentical runs ApplyPSparse's two kernels on the same
// inputs and requires the same indices and Float64bits: inputs of one, two
// and eight scatter shards, the thresholds of ParSim (1e-15), of PRSim and
// the exact pass (0) and of ExactSim at ε = 0.01 ((1−√c)²·ε′), operators of
// one and eight workers, and a graph with in-degree-0 nodes and nodes with
// no out-edges in every input's support. The operators live across the
// inputs, densest first, so the gather reuses its pooled scratch and a fold
// left in it would show as a moved bit; at the end one operator gathers
// every input from its own goroutine at once.
func TestGatherScatterBitIdentical(t *testing.T) {
	r := rng.New(17)
	const n, m = 6000, 48000
	b := graph.NewBuilder(n).Reserve(m)
	for b.Len() < m {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if v < 100 || (u >= 100 && u < 200) {
			continue // nodes 0–99 have no in-edges, 100–199 no out-edges
		}
		b.AddEdge(u, v)
	}
	g := b.Build()
	sqrtC := math.Sqrt(0.6)
	thresholds := []float64{0, 1e-15, (1 - sqrtC) * (1 - sqrtC) * 0.005}
	ops := []*Operator{NewOperator(g, 1), NewOperator(g, 8)}
	acc := sparse.NewAccumulator(n)
	var inputs, exact []sparse.Vector
	for _, nnz := range []int{5000, 700, 1200} { // 8, 1 and 2 shards
		// An in-degree-0 node and one with no out-edges, then nnz more.
		x := sparse.Vector{Idx: []int32{0, 150}}
		for _, i := range r.Perm(n)[:nnz] {
			x.Idx = append(x.Idx, int32(i))
		}
		slices.Sort(x.Idx)
		x.Idx = slices.Compact(x.Idx)
		for range x.Idx {
			// Values over six decades, and a few zeros, so sums fall on
			// both sides of every threshold.
			val := r.Float64() * math.Pow(10, -float64(r.Intn(6)))
			if r.Intn(50) == 0 {
				val = 0
			}
			x.Val = append(x.Val, val)
		}
		for _, op := range ops {
			var kept []int
			for _, th := range thresholds {
				want := op.scatterP(&x, acc, sqrtC, th)
				got := op.gatherP(&x, sqrtC, th)
				if !vectorsBitEqual(&want, &got) {
					t.Fatalf("nnz=%d shards=%d workers=%d threshold=%g: gather (%d entries) not bit-identical to scatter (%d entries)",
						x.Len(), sparseShards(x.Len()), op.Workers(), th, got.Len(), want.Len())
				}
				kept = append(kept, got.Len())
			}
			if kept[0] == 0 || kept[2] >= kept[0] {
				t.Fatalf("nnz=%d workers=%d: kept %v entries at thresholds %v; want some, and fewer at the largest", x.Len(), op.Workers(), kept, thresholds)
			}
		}
		inputs = append(inputs, x)
		exact = append(exact, ops[0].scatterP(&x, acc, sqrtC, 0))
	}
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if got := ops[1].gatherP(&inputs[i], sqrtC, 0); !vectorsBitEqual(&exact[i], &got) {
					t.Errorf("input %d: concurrent gather not bit-identical to scatter", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func sortVector(v *sparse.Vector) {
	for i := 1; i < len(v.Idx); i++ {
		for j := i; j > 0 && v.Idx[j-1] > v.Idx[j]; j-- {
			v.Idx[j-1], v.Idx[j] = v.Idx[j], v.Idx[j-1]
			v.Val[j-1], v.Val[j] = v.Val[j], v.Val[j-1]
		}
	}
}

func vectorsBitEqual(a, b *sparse.Vector) bool {
	if len(a.Idx) != len(b.Idx) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

func TestApplyPTFrontierMatchesDense(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(r, 40+r.Intn(60), 300)
		op := NewOperator(g, 1)
		n := g.N()
		x := make([]float64, n)
		xf := NewFrontier(n)
		for i := 0; i < 1+r.Intn(4); i++ {
			idx := int32(r.Intn(n))
			x[idx] = r.Float64()
			xf.Add(idx)
		}
		dst := make([]float64, n)
		// Pre-soil dst with stale values the frontier must clear.
		dstf := NewFrontier(n)
		for i := 0; i < 5; i++ {
			idx := int32(r.Intn(n))
			dst[idx] = 99
			dstf.Add(idx)
		}
		op.ApplyPTFrontier(dst, x, 0.8, xf, dstf)
		want := make([]float64, n)
		op.ApplyPT(want, x, 0.8)
		if d := maxAbsDiff(dst, want); d > 1e-12 {
			t.Fatalf("trial %d: frontier PT differs by %g", trial, d)
		}
		// Every nonzero of dst must be inside the reported frontier.
		if !dstf.Dense() {
			onFront := make(map[int32]bool, dstf.Len())
			for _, v := range dstf.list {
				onFront[v] = true
			}
			for i, v := range dst {
				if v != 0 && !onFront[int32(i)] {
					t.Fatalf("trial %d: nonzero dst[%d] outside frontier", trial, i)
				}
			}
		}
	}
}

func TestApplyPTFrontierDenseFallback(t *testing.T) {
	r := rng.New(13)
	g := randomGraph(r, 400, 4000)
	op := NewOperator(g, 2)
	n := g.N()
	x := randomDense(r, n)
	xf := NewFrontier(n)
	for i := 0; i < n; i++ { // frontier covers everything → > n/8 cutoff
		xf.Add(int32(i))
	}
	dst := make([]float64, n)
	for i := range dst {
		dst[i] = 123 // stale everywhere; dense gather must overwrite all
	}
	dstf := NewFrontier(n)
	op.ApplyPTFrontier(dst, x, 0.7, xf, dstf)
	if !dstf.Dense() {
		t.Fatal("full frontier did not flip dst frontier to dense")
	}
	want := make([]float64, n)
	op.ApplyPT(want, x, 0.7)
	if d := maxAbsDiff(dst, want); d != 0 {
		t.Fatalf("dense fallback differs by %g", d)
	}
	// A later sparse application over a dense-stale dst must clear it.
	clear(x)
	xf.Reset()
	x[0] = 1
	xf.Add(0)
	op.ApplyPTFrontier(want, x, 0.7, xf, dstf) // want is stale-dense now
	for i, v := range want {
		ref := 0.0
		for _, u := range g.InNeighbors(int32(i)) {
			ref += x[u]
		}
		ref *= 0.7 / float64(max(g.InDegree(int32(i)), 1))
		if math.Abs(v-ref) > 1e-12 {
			t.Fatalf("sparse-after-dense at %d: %g want %g", i, v, ref)
		}
	}
}

func TestDeadEndsAbsorb(t *testing.T) {
	// Path 0→1→2: node 0 has no in-neighbors. P moves mass toward
	// in-neighbors; mass on node 0 is absorbed (no outflow from x[0] via P
	// since... verify columns with d_in=0 contribute nothing).
	g := gen.Path(3)
	op := NewOperator(g, 1)
	x := []float64{1, 1, 1}
	y := make([]float64, 3)
	op.ApplyP(y, x, 1)
	// y(u) = Σ_{u→v} x(v)/din(v): y(0) = x(1)/1 = 1, y(1) = x(2)/1 = 1, y(2)=0
	if y[0] != 1 || y[1] != 1 || y[2] != 0 {
		t.Fatalf("path ApplyP = %v", y)
	}
}

func TestRowStochasticOnCycle(t *testing.T) {
	// On a cycle every node has in-degree 1, so P is a permutation matrix:
	// mass is conserved under both P and Pᵀ.
	g := gen.Cycle(7)
	op := NewOperator(g, 1)
	x := []float64{1, 0, 0, 0, 0, 0, 0}
	y := make([]float64, 7)
	op.ApplyP(y, x, 1)
	sum := 0.0
	for _, v := range y {
		sum += v
	}
	if math.Abs(sum-1) > 1e-15 {
		t.Fatalf("cycle mass not conserved: %g", sum)
	}
}

func TestOperatorAccessors(t *testing.T) {
	g := gen.Cycle(3)
	op := NewOperator(g, 0) // clamps to 1
	if op.Workers() != 1 {
		t.Fatalf("Workers=%d", op.Workers())
	}
	if op.Graph() != g {
		t.Fatal("Graph accessor broken")
	}
}

func BenchmarkApplyP(b *testing.B) {
	r := rng.New(1)
	g := gen.BarabasiAlbert(50000, 5, 1)
	op := NewOperator(g, 1)
	x := randomDense(r, g.N())
	y := make([]float64, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.ApplyP(y, x, 0.77)
	}
}

func BenchmarkApplyPSparse(b *testing.B) {
	g := gen.BarabasiAlbert(50000, 5, 1)
	op := NewOperator(g, 1)
	acc := sparse.NewAccumulator(g.N())
	x := sparse.Vector{Idx: []int32{0}, Val: []float64{1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := op.ApplyPSparse(&x, acc, 0.77, 1e-7)
		x = sparse.Vector{Idx: []int32{0}, Val: []float64{1}}
		_ = y
	}
}
