// Package core implements ExactSim, the paper's contribution: the first
// probabilistic-exact single-source SimRank algorithm for large graphs.
//
// Given a source v_i and error target ε, ExactSim returns ŝ with
// max_j |ŝ(j) − S(i,j)| ≤ ε with probability ≥ 1 − 1/n, in
// O(log n/ε² + m·log(1/ε)) time — crucially, the 1/ε² term does not
// multiply n, which is what makes ε = 10⁻⁷ (the float ulp, the paper's
// exactness threshold) reachable on billion-edge graphs.
//
// The three phases of Algorithm 1:
//
//  1. Forward: hop vectors π_i^ℓ = (√c·P)^ℓ(1−√c)e_i for ℓ = 0..L,
//     L = ⌈log_{1/c}(2/ε)⌉.
//  2. Diagonal: estimate D(k,k) with R(k) walk-pair samples per node.
//  3. Backward: s^ℓ = √c·Pᵀ·s^{ℓ−1} + D̂·π_i^{L−ℓ}/(1−√c); return s^L.
//
// The Optimized mode applies the paper's §3.2 techniques: sparse
// linearization (hop vectors truncated at (1−√c)²ε′, memory O(1/ε)),
// π²-proportional sample allocation (samples shrink by ‖π_i‖², large on
// power-law graphs), and Algorithm-3 local deterministic exploitation for
// D. Per Lemma 2's remark, Optimized runs internally at ε′ = ε/2 so the
// sparsification error keeps the end-to-end guarantee at ε.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/exactsim/exactsim/internal/diag"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/linalg"
	"github.com/exactsim/exactsim/internal/ppr"
)

// DefaultC is the decay factor used by the paper's evaluation (§4).
const DefaultC = 0.6

// ExactEpsilon is ε_min = 10⁻⁷: at this additive error the result matches
// the ground truth at float precision (Definition 1).
const ExactEpsilon = 1e-7

// Options configures an Engine.
type Options struct {
	// C is the SimRank decay factor in (0,1). Zero selects DefaultC.
	C float64
	// Epsilon is the additive error target in (0,1). Zero selects
	// ExactEpsilon, i.e. probabilistic-exact mode.
	Epsilon float64
	// Optimized enables sparse linearization, π²-sampling and Algorithm-3
	// D estimation (the paper's "ExactSim"); false gives "Basic ExactSim",
	// the ablation baseline of Figure 9 and Table 3.
	Optimized bool
	// Workers bounds parallelism. ≤1 reproduces the paper's single-thread
	// evaluation mode. A Lender may add helpers to the diagonal phase
	// beyond Workers; answers are bit-identical either way.
	Workers int
	// Seed makes every random choice deterministic. Two runs with equal
	// seeds and options return identical vectors regardless of Workers.
	Seed uint64
	// SampleFactor scales the theoretical sample count
	// R = 6·ln n/((1−√c)⁴ε²). 0 selects 1.0 (the paper's constant).
	SampleFactor float64
	// MaxSamplesPerNode caps R(k). The paper's theoretical R(k) is
	// astronomically conservative (≈10¹⁴ pairs for the source node at
	// ε=10⁻⁷); published runtimes imply the authors' implementation bounds
	// it in practice. In Optimized mode a capped node is compensated by
	// deeper Algorithm-3 exploration: reaching ℓ*(k) = ⌈log_{1/c}F(k)⌉/2
	// extra levels multiplies the tail variance by c^{2ℓ*} = 1/F(k),
	// restoring exactly the theoretical variance target, but only when the
	// exploration reaches ℓ*(k) within MaxExploreEdges; a node it stops
	// short keeps a larger tail variance, unreported (see DESIGN.md §4).
	// 0 selects 1<<16.
	MaxSamplesPerNode int
	// MaxExploreEdges caps the per-node Algorithm-3 deterministic
	// exploration work (edges pushed). 0 selects 1<<22.
	MaxExploreEdges int64
	// Ablation knobs, honoured only in Optimized mode (DESIGN.md §3,
	// "ablation-extra"): disable one §3.2 technique at a time.
	//
	// NoPiSquaredSampling falls back to the basic π-proportional sample
	// allocation (keeping sparse vectors and Algorithm 3).
	NoPiSquaredSampling bool
	// NoLocalExploit estimates D with Algorithm 2 instead of Algorithm 3
	// (keeping sparse vectors and π²-sampling; capped nodes lose their
	// depth compensation, so accuracy degrades — that is the point).
	NoLocalExploit bool
	// DiagIndex, when non-nil, shares the Diagonal phase's sample chunks
	// and exploration results across queries (and across engines bound to
	// the same graph, decay and seed — a Service shares one per graph
	// epoch). D(k,k) is a property of the graph, not of the query source,
	// so on a serving workload the index turns the dominant phase's cost
	// from per-query into per-epoch. With an index attached, per-node
	// sample allowances are rounded up to the next power of two so that
	// different sources land on identical (samples, depth, budget) cells
	// for shared nodes — at most 2× extra walk pairs on a cold node, in
	// exchange for near-total reuse on warm ones, and a strictly tighter
	// variance than the unrounded allowance. Results remain bit-identical
	// across worker counts, query order, and cache state (cold vs warm).
	DiagIndex *diag.SampleIndex
	// Lender, when non-nil, lends the diagonal phase the CPUs its query
	// pool has idle when the phase starts (see diag.Lender). A Service
	// attaches its own; direct callers keep exactly Workers goroutines.
	Lender *diag.Lender
}

func (o *Options) normalize() error {
	// NaN fails every ordered comparison, so the range checks below would
	// silently wave it through (NaN <= 0 is false) and poison the whole
	// run; reject non-finite knobs explicitly first.
	for _, knob := range []struct {
		name string
		v    float64
	}{{"C", o.C}, {"Epsilon", o.Epsilon}, {"SampleFactor", o.SampleFactor}} {
		if math.IsNaN(knob.v) || math.IsInf(knob.v, 0) {
			return fmt.Errorf("core: %s=%g is not finite", knob.name, knob.v)
		}
	}
	if o.C == 0 {
		o.C = DefaultC
	}
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("core: decay factor c=%g outside (0,1)", o.C)
	}
	if o.Epsilon == 0 {
		o.Epsilon = ExactEpsilon
	}
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return fmt.Errorf("core: epsilon=%g outside (0,1)", o.Epsilon)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.SampleFactor == 0 {
		o.SampleFactor = 1
	}
	if o.SampleFactor < 0 {
		return fmt.Errorf("core: negative SampleFactor %g", o.SampleFactor)
	}
	if o.MaxSamplesPerNode <= 0 {
		o.MaxSamplesPerNode = 1 << 16
	}
	if o.MaxExploreEdges <= 0 {
		o.MaxExploreEdges = 1 << 22
	}
	return nil
}

// Result carries a single-source answer plus the cost accounting the
// experiment harness reports (Figures 1/5/9, Table 3).
type Result struct {
	// Scores holds ŝ(j) for every node j; Scores[source] ≈ 1.
	Scores []float64
	// L is the truncation level used.
	L int
	// TotalSamples is Σ_k R(k), the number of √c-walk pairs simulated.
	TotalSamples int64
	// DNodes is the number of nodes whose D(k,k) entry was estimated.
	DNodes int
	// PiNorm2 is ‖π_i‖², the quantity that drives π²-sampling gains.
	PiNorm2 float64
	// ExtraBytes estimates the peak working memory beyond the graph:
	// hop vectors + diagonal estimates + dense work vectors.
	ExtraBytes int64
	// Phase timings.
	ForwardTime, DiagTime, BackwardTime time.Duration
}

// Engine answers single-source and top-k SimRank queries over one graph.
// Construct with New; an Engine is safe for concurrent use (per-query
// state comes from internally synchronized pools).
type Engine struct {
	g   *graph.Graph
	op  *linalg.Operator
	opt Options

	// dPool recycles the diagonal phase's per-worker estimators (each owns
	// O(n) scratch) across queries.
	dPool *diag.EstimatorPool
	// scratch recycles the dense per-query work vectors; under a sustained
	// Service load the only per-query dense allocation left is the
	// returned Scores vector itself.
	scratch sync.Pool
}

// queryScratch is one query's reusable dense state. Invariants while
// pooled: dHat is all-zero; tmpF tracks exactly the possibly-nonzero
// support of tmp (dense meaning "anything"); sF is empty.
type queryScratch struct {
	tmp  []float64
	dHat []float64
	pi   []float64 // basic mode only, no cleanliness invariant
	tmpF *linalg.Frontier
	sF   *linalg.Frontier
}

// New validates options and builds an engine for g.
func New(g *graph.Graph, opt Options) (*Engine, error) {
	if g == nil {
		return nil, errors.New("core: nil graph")
	}
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	e := &Engine{g: g, op: linalg.NewOperator(g, opt.Workers), opt: opt}
	e.dPool = diag.NewEstimatorPool(g, e.opt.C)
	return e, nil
}

// getScratch returns pooled (or fresh) per-query dense state.
func (e *Engine) getScratch() *queryScratch {
	if sc, ok := e.scratch.Get().(*queryScratch); ok {
		return sc
	}
	n := e.g.N()
	return &queryScratch{
		tmp:  make([]float64, n),
		dHat: make([]float64, n),
		tmpF: linalg.NewFrontier(n),
		sF:   linalg.NewFrontier(n),
	}
}

// putScratch recycles sc. clean reports that the caller restored the
// invariants (zeroed dHat via its known support, synced the frontiers); an
// unclean return — an error path that bailed mid-computation — falls back
// to a full restore here.
func (e *Engine) putScratch(sc *queryScratch, clean bool) {
	if !clean {
		clear(sc.dHat)
		sc.sF.Reset()
		sc.tmpF.Reset()
		sc.tmpF.MarkDense()
	}
	e.scratch.Put(sc)
}

// Options returns the engine's normalized options.
func (e *Engine) Options() Options { return e.opt }

// SingleSource runs ExactSim (Algorithm 1, plus §3.2 optimizations when
// enabled) for the given source node.
func (e *Engine) SingleSource(source graph.NodeID) (*Result, error) {
	return e.SingleSourceCtx(context.Background(), source)
}

// SingleSourceCtx is SingleSource under a context. Cancellation is
// cooperative and fine-grained: the forward phase checks between hop
// levels, the diagonal phase checks between nodes and every few thousand
// walk-pair samples (the phase that dominates at tight ε), and the
// backward phase checks between levels. A cancelled query returns
// ctx.Err() — typically context.Canceled or context.DeadlineExceeded —
// and no partial result.
func (e *Engine) SingleSourceCtx(ctx context.Context, source graph.NodeID) (*Result, error) {
	if source < 0 || int(source) >= e.g.N() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", source, e.g.N())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.opt.Optimized {
		return e.singleSourceOptimized(ctx, source)
	}
	return e.singleSourceBasic(ctx, source)
}

// lnN returns max(ln n, 1) so sample counts stay positive on tiny graphs.
func lnN(n int) float64 {
	l := math.Log(float64(n))
	if l < 1 {
		return 1
	}
	return l
}

// capSamples converts a theoretical (possibly astronomical) sample count to
// the per-node allowance.
func (e *Engine) capSamples(rTheory float64) int {
	if rTheory < 1 {
		return 1
	}
	if rTheory > float64(e.opt.MaxSamplesPerNode) {
		return e.opt.MaxSamplesPerNode
	}
	return int(rTheory)
}

// quantizeSamples rounds a theoretical sample count up to the next power of
// two when a DiagIndex is attached. Sample allowances derive from π_i(k),
// which varies continuously with the source i — unquantized, two queries
// would almost never agree on R(k) for a shared node k, and the index would
// cache streams nobody revisits. Quantizing collapses the allowances into
// octaves: per node only a handful of distinct (samples, depth, budget)
// cells ever occur, each sampled once per epoch and reused thereafter.
// Rounding up can only increase samples (and, for capped nodes, the
// compensation depth), so the Lemma-3 variance target still holds. The
// repeated doubling is exact in float64 far past any representable count,
// making the quantized value a pure function of its input on every path.
func (e *Engine) quantizeSamples(rTheory float64) float64 {
	if e.opt.DiagIndex == nil {
		return rTheory
	}
	p := 1.0
	for p < rTheory {
		p *= 2
	}
	return p
}

// singleSourceBasic is Algorithm 1 verbatim: dense hop vectors,
// π-proportional sampling, Algorithm-2 D estimation.
func (e *Engine) singleSourceBasic(ctx context.Context, source graph.NodeID) (*Result, error) {
	c, eps := e.opt.C, e.opt.Epsilon
	sqrtC := math.Sqrt(c)
	n := e.g.N()
	L := ppr.Levels(c, eps)
	res := &Result{L: L}

	sc := e.getScratch()
	clean := false
	defer func() { e.putScratch(sc, clean) }()
	if sc.pi == nil {
		sc.pi = make([]float64, n)
	}

	t0 := now()
	hops, err := ppr.HopsDenseCtx(ctx, e.op, source, ppr.Config{C: c, L: L})
	if err != nil {
		return nil, err
	}
	pi := sc.pi
	clear(pi)
	for _, h := range hops {
		for k, v := range h {
			pi[k] += v
		}
	}
	res.ForwardTime = since(t0)

	// R = 6·ln n/((1−√c)⁴·ε²); R(k) = ⌈R·π_i(k)⌉ (Algorithm 1 lines 6-8),
	// capped per node (Basic mode takes the cap uncompensated: it is the
	// ablation baseline, and Algorithm 2 has no depth knob to spend).
	t0 = now()
	gamma := math.Pow(1-sqrtC, 4)
	R := e.opt.SampleFactor * 6 * lnN(n) / (gamma * eps * eps)
	var reqs []diag.Request
	for k := 0; k < n; k++ {
		if pi[k] <= 0 {
			continue
		}
		rk := e.capSamples(e.quantizeSamples(math.Ceil(R * pi[k])))
		reqs = append(reqs, diag.Request{Node: int32(k), Samples: rk})
		res.TotalSamples += int64(rk)
	}
	dvals, err := diag.BatchCtx(ctx, e.g, reqs, diag.Options{
		C: c, Improved: false, Workers: e.opt.Workers, Seed: e.opt.Seed,
		Pool: e.dPool, Index: e.opt.DiagIndex, Lender: e.opt.Lender,
	})
	if err != nil {
		return nil, err
	}
	dHat := sc.dHat
	for i, req := range reqs {
		dHat[req.Node] = dvals[i]
	}
	res.DNodes = len(reqs)
	res.DiagTime = since(t0)

	// Backward accumulation (Algorithm 1 lines 9-13). The basic engine's
	// products are dense, so every tmp entry is overwritten before it is
	// read and the pooled array needs no clearing.
	t0 = now()
	s := make([]float64, n)
	tmp := sc.tmp
	invOneMinusSqrtC := 1 / (1 - sqrtC)
	for j := L; j >= 0; j-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if j < L {
			e.op.ApplyPT(tmp, s, sqrtC)
			s, tmp = tmp, s
		}
		hj := hops[j]
		for k := 0; k < n; k++ {
			if hj[k] != 0 {
				s[k] += invOneMinusSqrtC * dHat[k] * hj[k]
			}
		}
	}
	res.BackwardTime = since(t0)
	res.Scores = s
	res.PiNorm2 = ppr.Norm2Squared(pi)
	// hop vectors (n·(L+1) floats) dominate; plus π, D̂, s, tmp.
	res.ExtraBytes = int64(n) * int64(L+1) * 8 // hops
	res.ExtraBytes += 4 * int64(n) * 8         // pi, dHat, s, tmp
	// Restore the pool invariants: dHat zeroed through its known support,
	// tmp (whichever array ended up not being returned) marked unknown —
	// a dense query dirties it wholesale, and basic engines never read it
	// before a dense overwrite anyway.
	for _, req := range reqs {
		dHat[req.Node] = 0
	}
	sc.tmp = tmp
	sc.tmpF.Reset()
	sc.tmpF.MarkDense()
	clean = true
	return res, nil
}

// singleSourceOptimized applies sparse linearization, π²-sampling and
// Algorithm-3 D estimation. Internally it targets ε′ = ε/2 (Lemma 2).
func (e *Engine) singleSourceOptimized(ctx context.Context, source graph.NodeID) (*Result, error) {
	c := e.opt.C
	epsPrime := e.opt.Epsilon / 2
	sqrtC := math.Sqrt(c)
	n := e.g.N()
	L := ppr.Levels(c, epsPrime)
	threshold := (1 - sqrtC) * (1 - sqrtC) * epsPrime
	res := &Result{L: L}

	sc := e.getScratch()
	clean := false
	defer func() { e.putScratch(sc, clean) }()

	t0 := now()
	hops, err := ppr.HopsCtx(ctx, e.op, source, ppr.Config{C: c, L: L, Threshold: threshold})
	if err != nil {
		return nil, err
	}
	piVec := ppr.Sum(e.op, hops)
	piNorm2 := piVec.Norm2Squared()
	res.PiNorm2 = piNorm2
	res.ForwardTime = since(t0)

	// π²-proportional allocation (Lemma 3): R(k) = ⌈R·π(k)²/‖π‖²⌉ with the
	// total scaled down by ‖π‖²: effectively R(k) = ⌈6·ln n·π(k)²/((1−√c)⁴ε′²)⌉.
	// Nodes whose theoretical R(k) exceeds the cap get a deeper Algorithm-3
	// deterministic phase instead: depth ℓ* = ⌈log_{1/c}(R_theory/R_cap)⌉/2
	// multiplies the tail variance by c^{2ℓ*} = R_cap/R_theory, so the
	// combination meets the same variance target at feasible cost.
	t0 = now()
	gamma := math.Pow(1-sqrtC, 4)
	base := e.opt.SampleFactor * 6 * lnN(n) / (gamma * epsPrime * epsPrime)
	logInvC := math.Log(1 / c)
	reqs := make([]diag.Request, 0, piVec.Len())
	for i, k := range piVec.Idx {
		p := piVec.Val[i]
		var rTheory float64
		if e.opt.NoPiSquaredSampling {
			rTheory = math.Ceil(base * p) // ablation: π-proportional
		} else {
			rTheory = math.Ceil(base * p * p)
		}
		rTheory = e.quantizeSamples(rTheory)
		rk := e.capSamples(rTheory)
		req := diag.Request{Node: k, Samples: rk}
		if rTheory > float64(rk) && !e.opt.NoLocalExploit {
			f := rTheory / float64(rk)
			req.TargetDepth = int(math.Ceil(math.Log(f) / (2 * logInvC)))
			req.EdgeBudget = e.opt.MaxExploreEdges
		}
		reqs = append(reqs, req)
		res.TotalSamples += int64(rk)
	}
	dvals, err := diag.BatchCtx(ctx, e.g, reqs, diag.Options{
		C: c, Improved: !e.opt.NoLocalExploit, Workers: e.opt.Workers, Seed: e.opt.Seed,
		Pool: e.dPool, Index: e.opt.DiagIndex, Lender: e.opt.Lender,
	})
	if err != nil {
		return nil, err
	}
	dHat := sc.dHat
	for i, req := range reqs {
		dHat[req.Node] = dvals[i]
	}
	res.DNodes = len(reqs)
	res.DiagTime = since(t0)

	// Backward accumulation over sparse hop vectors. s's support spreads
	// from the source's backward reach, so the Pᵀ products run
	// frontier-aware: early levels scatter over the few reached nodes
	// instead of gathering over all n rows, and the frontiers also track
	// which stale entries of the pooled tmp need zeroing.
	t0 = now()
	s := make([]float64, n)
	tmp := sc.tmp
	sF, tmpF := sc.sF, sc.tmpF
	invOneMinusSqrtC := 1 / (1 - sqrtC)
	for j := L; j >= 0; j-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if j < L {
			e.op.ApplyPTFrontier(tmp, s, sqrtC, sF, tmpF)
			s, tmp = tmp, s
			sF, tmpF = tmpF, sF
		}
		hj := &hops[j]
		for i, k := range hj.Idx {
			s[k] += invOneMinusSqrtC * dHat[k] * hj.Val[i]
			sF.Add(k)
		}
	}
	res.BackwardTime = since(t0)
	res.Scores = s
	res.ExtraBytes = ppr.TotalBytes(hops) + piVec.Bytes()
	res.ExtraBytes += 3 * int64(n) * 8 // dHat, s, tmp
	// Restore the pool invariants: zero dHat through its known support,
	// keep tmp's frontier (it tracks the pooled array's stale entries for
	// the next query), and hand back an empty frontier for the next s —
	// sF tracks the *returned* Scores vector, which the caller owns now.
	for _, req := range reqs {
		dHat[req.Node] = 0
	}
	sc.tmp, sc.tmpF = tmp, tmpF
	sF.Reset()
	sc.sF = sF
	clean = true
	return res, nil
}

// SingleSourceWithD runs the linearized computation with a caller-supplied
// diagonal (len n). With the exact D this is a fully deterministic exact
// single-source method (used to validate the stochastic pipeline); with
// D = (1−c)·I it reproduces the ParSim approximation.
func (e *Engine) SingleSourceWithD(source graph.NodeID, d []float64) (*Result, error) {
	if source < 0 || int(source) >= e.g.N() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", source, e.g.N())
	}
	if len(d) != e.g.N() {
		return nil, fmt.Errorf("core: diagonal has %d entries for n=%d", len(d), e.g.N())
	}
	c, eps := e.opt.C, e.opt.Epsilon
	sqrtC := math.Sqrt(c)
	n := e.g.N()
	L := ppr.Levels(c, eps)
	res := &Result{L: L}

	var threshold float64
	if e.opt.Optimized {
		threshold = (1 - sqrtC) * (1 - sqrtC) * eps / 2
		L = ppr.Levels(c, eps/2)
		res.L = L
	}
	t0 := now()
	hops := ppr.Hops(e.op, source, ppr.Config{C: c, L: L, Threshold: threshold})
	res.ForwardTime = since(t0)

	t0 = now()
	s := make([]float64, n)
	tmp := make([]float64, n)
	invOneMinusSqrtC := 1 / (1 - sqrtC)
	for j := L; j >= 0; j-- {
		if j < L {
			e.op.ApplyPT(tmp, s, sqrtC)
			s, tmp = tmp, s
		}
		hj := &hops[j]
		for i, k := range hj.Idx {
			s[k] += invOneMinusSqrtC * d[k] * hj.Val[i]
		}
	}
	res.BackwardTime = since(t0)
	res.Scores = s
	res.ExtraBytes = ppr.TotalBytes(hops) + 3*int64(n)*8
	return res, nil
}
