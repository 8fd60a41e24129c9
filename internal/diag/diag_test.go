package diag

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/exactsim/exactsim/internal/gen"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/powermethod"
	"github.com/exactsim/exactsim/internal/rng"
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

func TestExactByIterationTrivial(t *testing.T) {
	g := gen.Path(3)
	d := ExactByIteration(g, c, 40)
	if d[0] != 1 {
		t.Fatalf("dead end D = %g", d[0])
	}
	for _, k := range []int{1, 2} {
		if math.Abs(d[k]-(1-c)) > 1e-12 {
			t.Fatalf("d_in=1 node %d: D = %g", k, d[k])
		}
	}
}

func TestExactByIterationStar(t *testing.T) {
	n := 7
	g := gen.Star(n)
	d := ExactByIteration(g, c, 60)
	leaves := float64(n - 1)
	want := 1 - c*(1+(leaves-1)*c)/leaves
	if math.Abs(d[0]-want) > 1e-12 {
		t.Fatalf("star center D = %g want %g", d[0], want)
	}
}

func TestExactByIterationCycle(t *testing.T) {
	// Two walks from the same cycle node stay glued: they meet iff both
	// survive step 1, so D = 1 − c.
	d := ExactByIteration(gen.Cycle(6), c, 60)
	for k, dk := range d {
		if math.Abs(dk-(1-c)) > 1e-12 {
			t.Fatalf("cycle D(%d) = %g", k, dk)
		}
	}
}

func TestExactByIterationMatchesPowerMethod(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := randomGraph(seed, 20, 70)
		want := powermethod.ExactD(g, c, powermethod.Compute(g, powermethod.Options{C: c, L: 50}))
		got := ExactByIteration(g, c, 50)
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-9 {
				t.Fatalf("seed %d node %d: pair-iteration %g vs power method %g",
					seed, k, got[k], want[k])
			}
		}
	}
}

func TestBasicEstimatorConverges(t *testing.T) {
	g := randomGraph(3, 15, 60)
	exact := ExactByIteration(g, c, 60)
	e := NewEstimator(g, c, 99)
	for k := 0; k < g.N(); k++ {
		got := e.Basic(int32(k), 40000)
		// σ ≤ 1/(2√R) ≈ 0.0025 → 5σ margin
		if math.Abs(got-exact[k]) > 0.015 {
			t.Fatalf("node %d: basic %g vs exact %g", k, got, exact[k])
		}
	}
}

func TestImprovedEstimatorConverges(t *testing.T) {
	g := randomGraph(5, 15, 60)
	exact := ExactByIteration(g, c, 60)
	e := NewEstimator(g, c, 101)
	for k := 0; k < g.N(); k++ {
		got := e.Improved(int32(k), 20000)
		if math.Abs(got-exact[k]) > 0.015 {
			t.Fatalf("node %d: improved %g vs exact %g", k, got, exact[k])
		}
	}
}

func TestImprovedBeatsBasicVariance(t *testing.T) {
	// With a healthy budget the deterministic prefix must shrink the
	// spread of the improved estimator well below the basic one.
	g := gen.BarabasiAlbert(60, 3, 9)
	exact := ExactByIteration(g, c, 60)
	k := int32(0)
	const trials, samples = 60, 400
	var mseB, mseI float64
	for i := 0; i < trials; i++ {
		e := NewEstimator(g, c, uint64(1000+i))
		b := e.Basic(k, samples)
		e.Reseed(uint64(5000 + i))
		im := e.Improved(k, samples)
		mseB += (b - exact[k]) * (b - exact[k])
		mseI += (im - exact[k]) * (im - exact[k])
	}
	if mseI >= mseB {
		t.Fatalf("improved MSE %g not below basic MSE %g", mseI/trials, mseB/trials)
	}
}

func TestImprovedTrivialCases(t *testing.T) {
	g := gen.Path(3)
	e := NewEstimator(g, c, 7)
	if got := e.Improved(0, 100); got != 1 {
		t.Fatalf("dead end: %g", got)
	}
	if got := e.Improved(1, 100); got != 1-c {
		t.Fatalf("d_in=1: %g", got)
	}
}

func TestImprovedTinyBudgetFallsBackToSampling(t *testing.T) {
	// samples=1 gives an edge budget too small for level 1 on a hub, so
	// ℓ(k)=0 and the estimator degenerates to a 1-sample Algorithm 2 —
	// the result must still be a valid probability in [1−c, 1] (clamped).
	g := gen.Clique(10)
	e := NewEstimator(g, c, 11)
	for trial := 0; trial < 50; trial++ {
		got := e.Improved(0, 1)
		if got < 1-c-1e-12 || got > 1+1e-12 {
			t.Fatalf("out of range: %g", got)
		}
	}
}

// bruteFirstMeeting computes Σ_{ℓ=1}^{L} Z_ℓ(k) by exact DP over pair
// states of non-stop walks, discounting by c^ℓ and removing collided mass
// (first-meeting semantics).
func bruteFirstMeeting(g *graph.Graph, cc float64, k graph.NodeID, L int) float64 {
	cur := map[[2]int32]float64{{k, k}: 1}
	total := 0.0
	for ell := 1; ell <= L; ell++ {
		next := map[[2]int32]float64{}
		collide := 0.0
		for uv, p := range cur {
			iu := g.InNeighbors(uv[0])
			iv := g.InNeighbors(uv[1])
			if len(iu) == 0 || len(iv) == 0 {
				continue
			}
			w := p / float64(len(iu)*len(iv))
			for _, up := range iu {
				for _, vp := range iv {
					if up == vp {
						collide += w
					} else {
						next[[2]int32{up, vp}] += w
					}
				}
			}
		}
		total += math.Pow(cc, float64(ell)) * collide
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	return total
}

func TestExploreDeterministicMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := randomGraph(seed*13, 12, 40)
		for k := int32(0); k < int32(g.N()); k++ {
			if g.InDegree(k) < 2 {
				continue
			}
			e := NewEstimator(g, c, 1)
			lk, zSum := e.exploreDeterministic(k, 1<<40)
			want := bruteFirstMeeting(g, c, k, lk)
			if math.Abs(zSum-want) > 1e-9 {
				t.Fatalf("seed %d node %d: zSum %g vs brute %g (ℓ(k)=%d)",
					seed, k, zSum, want, lk)
			}
		}
	}
}

func TestExploreDeterministicFullDepthGivesExactD(t *testing.T) {
	// With unlimited budget the deterministic sum reaches depth 64 where
	// the tail is ≤ c^64 ≈ 1e-15: 1 − Σ Z equals exact D.
	g := randomGraph(21, 10, 35)
	exact := ExactByIteration(g, c, 80)
	for k := int32(0); k < int32(g.N()); k++ {
		if g.InDegree(k) < 2 {
			continue
		}
		e := NewEstimator(g, c, 1)
		_, zSum := e.exploreDeterministic(k, 1<<50)
		if math.Abs((1-zSum)-exact[k]) > 1e-9 {
			t.Fatalf("node %d: 1−ΣZ = %g vs exact %g", k, 1-zSum, exact[k])
		}
	}
}

func TestBatchSerialParallelIdentical(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 31)
	reqs := make([]Request, 50)
	for i := range reqs {
		reqs[i] = Request{Node: int32(i * 3), Samples: 50 + i}
	}
	for _, improved := range []bool{false, true} {
		serial := Batch(g, reqs, Options{C: c, Improved: improved, Workers: 1, Seed: 42})
		par := Batch(g, reqs, Options{C: c, Improved: improved, Workers: 4, Seed: 42})
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("improved=%v req %d: serial %g vs parallel %g",
					improved, i, serial[i], par[i])
			}
		}
	}
}

func TestBatchFatRequestSerialParallelIdentical(t *testing.T) {
	// A request far above chunkSamples splits into many chunks; the merge
	// must keep the result bit-identical across worker counts (this is the
	// regime the chunking exists for — the source node's R(k)).
	g := gen.BarabasiAlbert(300, 4, 7)
	// The capped request is built the way core builds a source whose
	// sample allowance hit the cap: a target depth plus the 1<<22 edge
	// budget, which trips first. Its exploration is by far the slowest, so
	// with several workers its chunks wait for it.
	capped := Request{Node: 2, Samples: 2*chunkSamples + 5, TargetDepth: 16, EdgeBudget: 1 << 22}
	if lk, _ := NewEstimator(g, c, 1).explore(capped.Node, capped.EdgeBudget, capped.TargetDepth); lk >= capped.TargetDepth {
		t.Fatalf("capped request reaches its target depth %d; the budget must trip first", lk)
	}
	reqs := []Request{
		{Node: 0, Samples: 3*chunkSamples + 17},
		{Node: 5, Samples: 10},
		{Node: 9, Samples: chunkSamples}, // exactly one chunk
		capped,
	}
	for _, improved := range []bool{false, true} {
		serial := Batch(g, reqs, Options{C: c, Improved: improved, Workers: 1, Seed: 9})
		for _, workers := range []int{2, 8} {
			par := Batch(g, reqs, Options{C: c, Improved: improved, Workers: workers, Seed: 9})
			for i := range serial {
				if math.Float64bits(serial[i]) != math.Float64bits(par[i]) {
					t.Fatalf("improved=%v workers=%d req %d: %g vs %g",
						improved, workers, i, serial[i], par[i])
				}
			}
		}
	}
}

// goroutineStacks returns the stack of every goroutine, one per element.
func goroutineStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// stackWith reports whether one goroutine's stack holds every frame named.
func stackWith(stacks []string, frames ...string) bool {
	for _, s := range stacks {
		all := true
		for _, f := range frames {
			all = all && strings.Contains(s, f)
		}
		if all {
			return true
		}
	}
	return false
}

func TestBatchCtxCancelDuringExploration(t *testing.T) {
	// Node 0's exploration of a 150-clique to depth 64 takes about a
	// second; the small requests' units are done in milliseconds, after
	// which the other workers take node 0's chunks and wait for its
	// exploration. Cancelling then must stop the exploration, release the
	// waiting workers, and return.
	g := gen.Clique(150)
	reqs := []Request{{Node: 0, Samples: 2 * chunkSamples, TargetDepth: maxDeterministicLevels, EdgeBudget: 1 << 40}}
	for i := int32(1); i <= 6; i++ {
		reqs = append(reqs, Request{Node: i, Samples: 100})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		out    []float64
		err    error
		stacks []string // every goroutine, as BatchCtx returned
	}
	done := make(chan result, 1)
	go func() {
		// Through a pool, a worker that outlived BatchCtx would also lose
		// its stop flag when its estimator is handed back, and run on.
		opt := Options{C: c, Improved: true, Workers: 3, Seed: 4, Pool: NewEstimatorPool(g, c)}
		out, err := BatchCtx(ctx, g, reqs, opt)
		done <- result{out, err, goroutineStacks()}
	}()

	const (
		explore = "diag.(*Estimator).explore("
		wait    = "sync.(*WaitGroup).Wait("
		sample  = "diag.(*batch).sample("
		worker  = "diag.(*batch).work("
	)
	deadline := time.Now().Add(30 * time.Second)
	for {
		stacks := goroutineStacks()
		if stackWith(stacks, explore) && stackWith(stacks, wait, sample) {
			break
		}
		select {
		case r := <-done:
			t.Fatalf("BatchCtx returned (err %v) before a chunk waited on the exploration", r.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no chunk ever waited on the exploration")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	start := time.Now()
	var r result
	select {
	case r = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("BatchCtx did not return after cancellation")
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Errorf("BatchCtx took %v to return after cancellation", took)
	}
	if !errors.Is(r.err, context.Canceled) || r.out != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", r.out, r.err)
	}
	if stackWith(r.stacks, worker) {
		t.Fatal("a worker outlived BatchCtx")
	}
}

func TestBatchEmpty(t *testing.T) {
	g := gen.Cycle(3)
	if got := Batch(g, nil, Options{C: c, Workers: 2, Seed: 1}); len(got) != 0 {
		t.Fatalf("empty batch returned %v", got)
	}
}

func TestBatchAccuracy(t *testing.T) {
	g := randomGraph(77, 12, 50)
	exact := ExactByIteration(g, c, 60)
	reqs := make([]Request, g.N())
	for i := range reqs {
		reqs[i] = Request{Node: int32(i), Samples: 20000}
	}
	got := Batch(g, reqs, Options{C: c, Improved: true, Workers: 2, Seed: 5})
	for k := range got {
		if math.Abs(got[k]-exact[k]) > 0.02 {
			t.Fatalf("node %d: batch %g vs exact %g", k, got[k], exact[k])
		}
	}
}

func TestEstimatesWithinFeasibleInterval(t *testing.T) {
	// D(k,k) ∈ [1−c, 1] always; Improved clamps, and on these graphs the
	// basic estimator with moderate samples must stay inside a loose band.
	g := gen.BarabasiAlbert(100, 4, 51)
	e := NewEstimator(g, c, 3)
	for k := int32(0); k < 100; k += 7 {
		im := e.Improved(k, 500)
		if im < 1-c-1e-12 || im > 1+1e-12 {
			t.Fatalf("improved D(%d) = %g outside [1−c,1]", k, im)
		}
	}
}

func BenchmarkBasic1000(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 5, 1)
	e := NewEstimator(g, c, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Basic(int32(i%g.N()), 1000)
	}
}

func BenchmarkImproved1000(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 5, 1)
	e := NewEstimator(g, c, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Improved(int32(i%g.N()), 1000)
	}
}

// benchBatchReqs models ExactSim's diagonal phase at tight ε: one fat
// source request (the π²-sampling cap) plus a long tail of small ones.
func benchBatchReqs(g *graph.Graph) []Request {
	reqs := make([]Request, 0, 1001)
	reqs = append(reqs, Request{Node: 0, Samples: 1 << 16})
	for i := 1; i <= 1000; i++ {
		reqs = append(reqs, Request{Node: int32(i % g.N()), Samples: 64})
	}
	return reqs
}

// BenchmarkDiagBatch is the stable baseline for the diagonal phase's
// parallel scaling: run with -cpu=1,8 to see the fat-request sharding
// effect (whole-request scheduling would pin the 1<<16-sample source on
// one worker regardless of pool size).
func BenchmarkDiagBatch(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 5, 1)
	reqs := benchBatchReqs(g)
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Batch(g, reqs, Options{C: c, Improved: true, Workers: workers, Seed: 1})
	}
}

// BenchmarkDiagBatchCapped is BenchmarkDiagBatch with the fat request
// built as core builds a capped source: a target depth and the 1<<22 edge
// budget, which trips at level 3 here. It measures what the uncapped
// variant cannot: the cost of the level that overflows the budget, and
// whether sampling overlaps the source's exploration.
func BenchmarkDiagBatchCapped(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 5, 1)
	reqs := benchBatchReqs(g)
	reqs[0].TargetDepth, reqs[0].EdgeBudget = 7, 1<<22
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Batch(g, reqs, Options{C: c, Improved: true, Workers: workers, Seed: 1})
	}
}

// BenchmarkDiagBatchSerial is BenchmarkDiagBatch pinned to one worker, the
// denominator of the scaling ratio.
func BenchmarkDiagBatchSerial(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 5, 1)
	reqs := benchBatchReqs(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Batch(g, reqs, Options{C: c, Improved: true, Workers: 1, Seed: 1})
	}
}
