package core

import (
	"math"
	"testing"

	"github.com/exactsim/exactsim/internal/diag"
	"github.com/exactsim/exactsim/internal/gen"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/powermethod"
	"github.com/exactsim/exactsim/internal/rng"
	"github.com/exactsim/exactsim/internal/sparse"
)

const c = 0.6

func randomGraph(seed uint64, n, m int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Build()
}

func maxErr(got, want []float64) float64 {
	d := 0.0
	for i := range got {
		if x := math.Abs(got[i] - want[i]); x > d {
			d = x
		}
	}
	return d
}

func groundTruth(g *graph.Graph) *powermethod.Matrix {
	return powermethod.Compute(g, powermethod.Options{C: c, L: 60})
}

func TestOptionsValidation(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := New(g, Options{C: 1.5}); err == nil {
		t.Fatal("c=1.5 accepted")
	}
	if _, err := New(g, Options{Epsilon: 2}); err == nil {
		t.Fatal("eps=2 accepted")
	}
	if _, err := New(g, Options{SampleFactor: -1}); err == nil {
		t.Fatal("negative SampleFactor accepted")
	}
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := e.Options()
	if o.C != DefaultC || o.Epsilon != ExactEpsilon || o.Workers != 1 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if o.MaxSamplesPerNode != 1<<16 || o.MaxExploreEdges != 1<<22 {
		t.Fatalf("cap defaults not applied: %+v", o)
	}
}

func TestSourceRangeChecked(t *testing.T) {
	g := gen.Cycle(4)
	e, _ := New(g, Options{Epsilon: 0.1})
	if _, err := e.SingleSource(-1); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := e.SingleSource(4); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := e.SingleSourceWithD(0, make([]float64, 3)); err == nil {
		t.Fatal("short diagonal accepted")
	}
}

func TestBasicMatchesPowerMethod(t *testing.T) {
	g := randomGraph(11, 40, 160)
	truth := groundTruth(g)
	e, err := New(g, Options{Epsilon: 1e-2, Seed: 7, Optimized: false})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int32{0, 7, 23} {
		res, err := e.SingleSource(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := maxErr(res.Scores, truth.Row(int(src))); got > 1e-2 {
			t.Fatalf("source %d: basic MaxError %g > eps", src, got)
		}
	}
}

func TestOptimizedMatchesPowerMethod(t *testing.T) {
	g := randomGraph(13, 40, 160)
	truth := groundTruth(g)
	e, err := New(g, Options{Epsilon: 1e-3, Seed: 9, Optimized: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int32{0, 11, 39} {
		res, err := e.SingleSource(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := maxErr(res.Scores, truth.Row(int(src))); got > 1e-3 {
			t.Fatalf("source %d: optimized MaxError %g > eps", src, got)
		}
	}
}

func TestOptimizedTightEpsilon(t *testing.T) {
	// ε=1e-5 on a small scale-free graph: the variance-targeted capping
	// must hold the measured error at or below the configured ε.
	g := gen.BarabasiAlbert(60, 3, 17)
	truth := groundTruth(g)
	e, err := New(g, Options{Epsilon: 1e-5, Seed: 21, Optimized: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SingleSource(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxErr(res.Scores, truth.Row(5)); got > 1e-5 {
		t.Fatalf("MaxError %g > 1e-5", got)
	}
}

func TestSelfScoreNearOne(t *testing.T) {
	g := gen.BarabasiAlbert(80, 3, 19)
	e, _ := New(g, Options{Epsilon: 1e-3, Seed: 3, Optimized: true})
	res, err := e.SingleSource(10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Scores[10]-1) > 1e-3 {
		t.Fatalf("ŝ(source) = %g", res.Scores[10])
	}
}

func TestExactDVariantIsDeterministicExact(t *testing.T) {
	// With the exact diagonal, the only error sources are the c^L tail and
	// (optimized) sparsification: at ε=1e-6 the result must match the power
	// method within 1e-6 with zero randomness.
	g := randomGraph(23, 30, 120)
	truth := groundTruth(g)
	dExact := diag.ExactByIteration(g, c, 80)
	for _, optimized := range []bool{false, true} {
		e, _ := New(g, Options{Epsilon: 1e-6, Optimized: optimized})
		res, err := e.SingleSourceWithD(3, dExact)
		if err != nil {
			t.Fatal(err)
		}
		if got := maxErr(res.Scores, truth.Row(3)); got > 1e-6 {
			t.Fatalf("optimized=%v: exact-D MaxError %g", optimized, got)
		}
	}
}

func TestParSimDiagonalShowsBias(t *testing.T) {
	// D=(1−c)·I is the ParSim approximation; the paper stresses it ignores
	// the first-meeting constraint. On a graph with hubs the bias must be
	// visible — and far larger than the exact-D error.
	g := gen.Star(20)
	truth := groundTruth(g)
	dPar := make([]float64, g.N())
	for i := range dPar {
		dPar[i] = 1 - c
	}
	e, _ := New(g, Options{Epsilon: 1e-6})
	res, err := e.SingleSourceWithD(1, dPar)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxErr(res.Scores, truth.Row(1)); got < 1e-3 {
		t.Fatalf("ParSim diagonal unexpectedly accurate: MaxError %g", got)
	}
}

func TestDeterministicAcrossRunsAndWorkers(t *testing.T) {
	g := gen.BarabasiAlbert(100, 4, 29)
	run := func(workers int) []float64 {
		e, _ := New(g, Options{Epsilon: 1e-3, Seed: 55, Optimized: true, Workers: workers})
		res, err := e.SingleSource(17)
		if err != nil {
			t.Fatal(err)
		}
		return res.Scores
	}
	a, b, p := run(1), run(1), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs differ at %d", i)
		}
		if a[i] != p[i] {
			t.Fatalf("parallel run differs at %d", i)
		}
	}
}

func TestBasicAndOptimizedAgree(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 31)
	eb, _ := New(g, Options{Epsilon: 1e-3, Seed: 1, Optimized: false})
	eo, _ := New(g, Options{Epsilon: 1e-3, Seed: 2, Optimized: true})
	rb, err := eb.SingleSource(8)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := eo.SingleSource(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxErr(rb.Scores, ro.Scores); got > 2e-3 {
		t.Fatalf("basic and optimized disagree by %g", got)
	}
}

func TestOptimizedUsesFewerSamples(t *testing.T) {
	// π²-sampling must allocate far fewer walk pairs than π-sampling at
	// the same ε (‖π‖² < 1); this is the Lemma-3 speedup. ε is chosen
	// loose enough that the per-node cap binds neither allocation (under
	// saturation both schemes flatten to cap·support and the comparison
	// would be vacuous).
	g := gen.BarabasiAlbert(300, 4, 37)
	eb, _ := New(g, Options{Epsilon: 5e-2, Seed: 1, Optimized: false})
	eo, _ := New(g, Options{Epsilon: 5e-2, Seed: 1, Optimized: true})
	rb, _ := eb.SingleSource(12)
	ro, _ := eo.SingleSource(12)
	if ro.TotalSamples*2 > rb.TotalSamples {
		t.Fatalf("optimized samples %d not well below basic %d",
			ro.TotalSamples, rb.TotalSamples)
	}
	if ro.PiNorm2 <= 0 || ro.PiNorm2 > 1 {
		t.Fatalf("PiNorm2 = %g", ro.PiNorm2)
	}
}

func TestMemoryAccountingShape(t *testing.T) {
	// Optimized mode must report much less extra memory than basic at
	// small ε (sparse hop vectors vs dense n·L) — Table 3's comparison.
	g := gen.BarabasiAlbert(2000, 4, 41)
	eb, _ := New(g, Options{Epsilon: 1e-4, Seed: 1, Optimized: false, SampleFactor: 1e-6})
	eo, _ := New(g, Options{Epsilon: 1e-4, Seed: 1, Optimized: true, SampleFactor: 1e-6})
	rb, _ := eb.SingleSource(3)
	ro, _ := eo.SingleSource(3)
	if rb.ExtraBytes <= ro.ExtraBytes {
		t.Fatalf("basic extra %d should exceed optimized extra %d",
			rb.ExtraBytes, ro.ExtraBytes)
	}
}

func TestResultAccounting(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 43)
	e, _ := New(g, Options{Epsilon: 1e-2, Seed: 5, Optimized: true})
	res, err := e.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.L <= 0 || res.TotalSamples <= 0 || res.DNodes <= 0 {
		t.Fatalf("accounting: %+v", res)
	}
	if res.DNodes > g.N() {
		t.Fatalf("DNodes %d > n", res.DNodes)
	}
	if res.ExtraBytes <= 0 {
		t.Fatal("ExtraBytes not recorded")
	}
}

func TestTopK(t *testing.T) {
	// Two communities: top-k of a node must be dominated by its own side.
	g := gen.TwoCommunities(25, 0.4, 0.01, 47)
	e, _ := New(g, Options{Epsilon: 1e-3, Seed: 11, Optimized: true})
	res, err := e.SingleSource(3)
	if err != nil {
		t.Fatal(err)
	}
	top := sparse.TopK(res.Scores, 10, 3)
	if len(top) != 10 {
		t.Fatalf("got %d entries", len(top))
	}
	for _, entry := range top {
		if entry.Idx == 3 {
			t.Fatal("source included in its own top-k")
		}
		if math.Abs(res.Scores[entry.Idx]-entry.Val) > 1e-15 {
			t.Fatal("entry value does not match score vector")
		}
	}
	sameSide := 0
	for _, entry := range top {
		if entry.Idx < 25 {
			sameSide++
		}
	}
	if sameSide < 7 {
		t.Fatalf("only %d/10 top-k from the source community", sameSide)
	}
}

func TestDisconnectedSource(t *testing.T) {
	// A node with no in-edges: π has only the level-0 spike; the result
	// must still be valid, with ŝ(source) ≈ D(source) / ... = 1.
	b := graph.NewBuilder(5)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	e, _ := New(g, Options{Epsilon: 1e-3, Seed: 1, Optimized: true})
	res, err := e.SingleSource(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Scores[0]-1) > 1e-3 {
		t.Fatalf("isolated source self-score %g", res.Scores[0])
	}
	for j := 1; j < 5; j++ {
		if res.Scores[j] != 0 {
			t.Fatalf("isolated source has nonzero similarity to %d", j)
		}
	}
}

func TestScoresWithinBounds(t *testing.T) {
	g := gen.BarabasiAlbert(150, 4, 53)
	e, _ := New(g, Options{Epsilon: 1e-3, Seed: 13, Optimized: true})
	res, err := e.SingleSource(5)
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range res.Scores {
		if s < -1e-3 || s > 1+1e-3 {
			t.Fatalf("score %d = %g outside [0,1] beyond ε", j, s)
		}
		if int32(j) != 5 && s > c+1e-3 {
			t.Fatalf("off-source score %g exceeds c+ε", s)
		}
	}
}

func BenchmarkOptimizedEps1e3(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 5, 1)
	e, _ := New(g, Options{Epsilon: 1e-3, Seed: 1, Optimized: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SingleSource(int32(i % g.N())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBasicEps1e3(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 5, 1)
	e, _ := New(g, Options{Epsilon: 1e-3, Seed: 1, Optimized: false})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SingleSource(int32(i % g.N())); err != nil {
			b.Fatal(err)
		}
	}
}
