// Package diag estimates the diagonal correction matrix D of the SimRank
// linearization S = Σ_ℓ c^ℓ (P^ℓ)ᵀ D P^ℓ (paper eq. 3).
//
// D(k,k) = 1 − Pr[two √c-walks from v_k meet at some step ≥ 1], which lies
// in [1−c, 1]. The package provides the paper's two estimators —
//
//   - Algorithm 2 (Estimator.Basic): the plain Bernoulli trial, fraction of
//     walk pairs that never meet;
//   - Algorithm 3 (Estimator.Improved): local deterministic exploitation of
//     the first-meeting probabilities Z_ℓ(k) via the Lemma-4 recursion
//     under an adaptive edge budget, plus hybrid non-stop/√c tail walks —
//
// an exact oracle for small graphs (ExactByIteration, pair-state value
// iteration), and a deterministic parallel Batch driver used by ExactSim
// and the Linearization baseline.
//
// Batch shards *within* fat requests, not just across requests: the source
// node's sample allowance R(k) is orders of magnitude above the median
// (π²-sampling concentrates almost everything on the source), so
// whole-request scheduling would leave one worker grinding the source while
// the rest idle. Requests are cut into fixed-size sample chunks; each chunk
// runs on its own RNG stream derived from (Seed, node, chunk), and chunk
// results are integer meet-counts, so the merge is exact and the output is
// bit-identical at any worker count. Because the stream belongs to the
// node rather than the request, chunk results are also reusable across
// queries: SampleIndex caches them (and the deterministic exploration
// results) so a serving workload pays each node's sampling once per graph
// epoch instead of once per query.
//
// Explorations and chunks share one schedule, with no barrier between
// them. Workers take the explorations first, largest edge budget first;
// a chunk needs only its own node's prefix depth ℓ(k), so it waits for
// that one exploration and sampling overlaps the source node's long one.
// An exploration never starts a level it cannot afford: each level's edge
// cost is known before the level runs (see Estimator.explore).
//
// The schedule does not care how many goroutines drain it, so a query
// service lends the run its idle CPUs (Lender): helpers join at the start
// and leave at a unit boundary when a new query wants the CPU back.
package diag

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/sparse"
	"github.com/exactsim/exactsim/internal/walk"
)

// maxDeterministicLevels caps Algorithm 3's deterministic exploitation
// depth; beyond this depth c^ℓ has shrunk the tail far below any error
// target we support, so deeper exploration would only burn budget.
const maxDeterministicLevels = 64

// chunkSamples is the walk-pair count of one Batch scheduling unit — small
// enough that the fattest request (R(k) capped at 1<<16 by default) splits
// across every worker, large enough that per-chunk reseed/bookkeeping
// amortizes to noise (a chunk is ≈ 1 ms of walking). It must stay fixed:
// chunk boundaries are part of the seed→result contract.
const chunkSamples = 8192

// cPowTable returns [1, c, c², …] up to the deterministic depth cap.
func cPowTable(c float64) [maxDeterministicLevels + 1]float64 {
	var t [maxDeterministicLevels + 1]float64
	t[0] = 1
	for i := 1; i < len(t); i++ {
		t[i] = t[i-1] * c
	}
	return t
}

// Estimator estimates D(k,k) entries for one graph. It owns reusable
// scratch, so one Estimator per worker amortizes allocations across the
// (typically many) nodes whose D entries a query needs. Not safe for
// concurrent use.
type Estimator struct {
	g *graph.Graph
	c float64
	w *walk.Walker

	// cPow[ℓ] = c^ℓ, hoisted out of the Lemma-4 recursion's inner loops
	// (math.Pow per (ℓ,ℓ') pair showed up in profiles).
	cPow [maxDeterministicLevels + 1]float64

	// srcSlot/srcStates index the non-stop walk distributions of the
	// sources discovered during explore, keyed by first-touch order: a
	// slice walk instead of the map the profile showed thrashing on. After
	// each explore the touched slots reset to -1; srcStates keeps its
	// capacity across nodes.
	srcSlot   []int32
	srcStates []sourceState
	zByLevel  []sparse.Vector // per-explore Z_ℓ scratch, reused

	// stamp and pos let explore build each level and Z_ℓ vector in place,
	// in one pass: node q is in the vector under construction iff
	// stamp[q] == gen, at index pos[q]. Starting the next vector is one
	// increment of gen; when gen wraps to 0, stamp is cleared. A first
	// touch stores 0+x, the sum a zeroed accumulator formed, so a −0
	// product still lands as +0.
	stamp []uint32
	pos   []int32
	gen   uint32

	// stop, when non-nil, is polled inside the sample and exploration
	// loops (every stopCheckPairs walk pairs); once set, estimates are
	// abandoned mid-node. Only BatchCtx sets it, and it discards the
	// partial output, so a non-cancelled run stays bit-reproducible.
	stop *atomic.Bool
}

// stopCheckPairs controls how often the sample loops poll the stop flag:
// every 4096 walk pairs, ≈ tens of microseconds of work between polls.
const stopCheckPairs = 4096

// SetStop installs a cooperative cancellation flag (nil to clear).
func (e *Estimator) SetStop(stop *atomic.Bool) { e.stop = stop }

// stopped reports whether a cancellation flag is set.
func (e *Estimator) stopped() bool { return e.stop != nil && e.stop.Load() }

// NewEstimator returns an estimator with decay c and a deterministic seed.
func NewEstimator(g *graph.Graph, c float64, seed uint64) *Estimator {
	slots := make([]int32, g.N())
	for i := range slots {
		slots[i] = -1
	}
	return &Estimator{
		g:       g,
		c:       c,
		w:       walk.NewWalker(g, c, seed),
		cPow:    cPowTable(c),
		srcSlot: slots,
		stamp:   make([]uint32, g.N()),
		pos:     make([]int32, g.N()),
	}
}

// Reseed resets the estimator's random stream, making the next estimate a
// deterministic function of (graph, node, samples, seed) — the property
// Batch uses to stay reproducible under parallel scheduling.
func (e *Estimator) Reseed(seed uint64) { e.w.RNG().Reseed(seed) }

// meets runs `count` hybrid walk-pair trials of Algorithm 3 — lk forced
// non-stop steps, then ordinary √c-walks — and returns how many met. With
// lk == 0 they are Algorithm 2's trials. The walker runs them in runs of
// stopCheckPairs, and the stop flag is polled before each run.
func (e *Estimator) meets(k graph.NodeID, lk, count int) int64 {
	var met int64
	for done := 0; done < count; done += stopCheckPairs {
		if e.stopped() {
			break
		}
		met += e.w.PairMeets(k, lk, min(count-done, stopCheckPairs))
	}
	return met
}

// Basic is paper Algorithm 2: simulate `samples` independent pairs of
// √c-walks from k and return the fraction that do NOT meet. Unbiased with
// variance D(k,k)(1−D(k,k))/samples.
func (e *Estimator) Basic(k graph.NodeID, samples int) float64 {
	if samples <= 0 {
		samples = 1
	}
	met := e.meets(k, 0, samples)
	return float64(int64(samples)-met) / float64(samples)
}

// ImprovedParams tunes Algorithm 3 beyond the paper's defaults.
type ImprovedParams struct {
	// Samples is the tail walk-pair count R(k).
	Samples int
	// TargetDepth, when positive, asks the deterministic phase to reach at
	// least this level (budget permitting) and to stop there rather than
	// spending the whole budget. ExactSim uses it to compensate sample
	// capping: reaching depth ℓ* multiplies the tail variance by c^{2ℓ*}.
	TargetDepth int
	// EdgeBudget caps deterministic-exploration work. Zero selects the
	// paper's 2·Samples/√c (the expected edge cost of plain sampling).
	EdgeBudget int64
}

// normalize fills the paper's defaults in place (shared by the single-node
// path and Batch's planning phase so both run identical parameters).
func (p *ImprovedParams) normalize(c float64) {
	if p.Samples <= 0 {
		p.Samples = 1
	}
	if p.EdgeBudget <= 0 {
		p.EdgeBudget = int64(2 * float64(p.Samples) / math.Sqrt(c))
	}
	if p.TargetDepth <= 0 || p.TargetDepth > maxDeterministicLevels {
		p.TargetDepth = maxDeterministicLevels
	}
}

// finishImproved assembles the Algorithm-3 estimate from the deterministic
// prefix (lk, zSum) and the tail meet count, clamping to the feasible
// interval [1−c, 1] (stochastic noise can stray slightly).
func finishImproved(c float64, cl float64, zSum float64, meets int64, samples int) float64 {
	dHat := 1 - zSum - cl*float64(meets)/float64(samples)
	if dHat < 1-c {
		dHat = 1 - c
	}
	if dHat > 1 {
		dHat = 1
	}
	return dHat
}

// Improved is paper Algorithm 3. Under the edge budget (default 2·R(k)/√c,
// the expected edge work of the plain estimator) it deterministically
// computes the first-meeting mass Σ_{ℓ≤ℓ(k)} Z_ℓ(k) via the Lemma-4
// recursion, then estimates the tail Σ_{ℓ>ℓ(k)} Z_ℓ(k) with R(k) hybrid
// walk pairs: ℓ(k) forced non-stop steps followed by ordinary √c-walks,
// each meeting pair weighted c^{ℓ(k)}/R(k). Variance shrinks by c^{ℓ(k)}.
func (e *Estimator) Improved(k graph.NodeID, samples int) float64 {
	return e.ImprovedWith(k, ImprovedParams{Samples: samples})
}

// ImprovedWith runs Algorithm 3 with explicit exploration parameters.
func (e *Estimator) ImprovedWith(k graph.NodeID, p ImprovedParams) float64 {
	switch e.g.InDegree(k) {
	case 0:
		return 1
	case 1:
		return 1 - e.c
	}
	p.normalize(e.c)
	lk, zSum := e.explore(k, p.EdgeBudget, p.TargetDepth)
	meets := e.meets(k, lk, p.Samples)
	return finishImproved(e.c, e.cPow[lk], zSum, meets, p.Samples)
}

// sourceState tracks the non-stop walk distributions (Pᵀ)^a(q,·) of one
// source q for a = 0..len(levels)-1, and cost, the in-degree sum over the
// last level's support: exactly the edges extending q by one level scans.
type sourceState struct {
	node   graph.NodeID
	levels []sparse.Vector
	cost   int64
}

// slot returns the srcStates index of source q, creating (and seeding with
// the level-0 unit vector) on first touch. Callers must not hold
// *sourceState pointers across slot calls — the backing array may grow.
func (e *Estimator) slot(q graph.NodeID) int32 {
	if s := e.srcSlot[q]; s >= 0 {
		return s
	}
	s := int32(len(e.srcStates))
	e.srcSlot[q] = s
	cost := int64(e.g.InDegree(q))
	if len(e.srcStates) < cap(e.srcStates) {
		// Reuse the retired element's level vectors from a prior explore —
		// in steady state an explore allocates nothing here.
		e.srcStates = e.srcStates[:s+1]
		st := &e.srcStates[s]
		st.node, st.cost = q, cost
		if cap(st.levels) > 0 {
			st.levels = st.levels[:1]
			st.levels[0].Idx = append(st.levels[0].Idx[:0], q)
			st.levels[0].Val = append(st.levels[0].Val[:0], 1)
			return s
		}
	}
	e.srcStates = append(e.srcStates[:s], sourceState{
		node:   q,
		levels: []sparse.Vector{{Idx: []int32{q}, Val: []float64{1}}},
		cost:   cost,
	})
	return s
}

// resetSources retires every source discovered by the last explore.
func (e *Estimator) resetSources() {
	for i := range e.srcStates {
		e.srcSlot[e.srcStates[i].node] = -1
	}
	e.srcStates = e.srcStates[:0]
}

// exploreDeterministic runs Algorithm 3's deterministic phase with the
// paper's default depth policy (budget-driven only).
func (e *Estimator) exploreDeterministic(k graph.NodeID, budget int64) (int, float64) {
	return e.explore(k, budget, maxDeterministicLevels)
}

// explore runs Algorithm 3's deterministic phase for node k and returns
// the reached level ℓ(k) and Σ_{ℓ=1}^{ℓ(k)} Z_ℓ(k). It stops at maxDepth
// even if budget remains. It uses no randomness, so its result is a pure
// function of (graph, k, budget, maxDepth) — Batch relies on that to
// parallelize exploration without threatening reproducibility.
//
// Invariant kept per outer level ℓ: before computing Z_ℓ, every node q'
// discovered at depth d (that is, (Pᵀ)^d(k,q') > 0 for some 1 ≤ d < ℓ) has
// its distributions computed up to level ℓ−d; the Lemma-4 subtraction at
// level ℓ reads exactly levels ℓ' = ℓ−d of those sources.
//
// So level ℓ extends every source by exactly one level — k to ℓ, each node
// first discovered at depth d to ℓ−d — and its edge cost, the sum of the
// sources' cost fields, is known before any of it runs. A level that would
// take the running total to the budget is never started: explore returns
// the deepest complete level, (ℓ−1, Σ_{ℓ'<ℓ} Z_ℓ'), at once.
func (e *Estimator) explore(k graph.NodeID, budget int64, maxDepth int) (int, float64) {
	g := e.g
	inOff, inAdj := g.InCSR()
	var edges int64
	defer e.resetSources()

	// extend computes one more level for the source in slot si and its
	// cost. The caller has already charged the edges it scans.
	extend := func(si int32) {
		st := &e.srcStates[si]
		// The new level is built in the retired vector beyond len when
		// one exists, so steady state allocates nothing.
		nl := len(st.levels)
		if nl < cap(st.levels) {
			st.levels = st.levels[:nl+1]
		} else {
			st.levels = append(st.levels, sparse.Vector{})
		}
		last, next := &st.levels[nl-1], &st.levels[nl]
		// Scatter into next in first-touch order (deterministic, and
		// nothing binary-searches these vectors).
		idx, val := next.Idx[:0], next.Val[:0]
		stamp, pos, gen := e.stamp, e.pos, e.nextGen()
		for i, x := range last.Idx {
			lo, hi := inOff[x], inOff[x+1]
			if lo == hi {
				continue
			}
			share := last.Val[i] / float64(hi-lo)
			for _, q := range inAdj[lo:hi] {
				if stamp[q] == gen {
					val[pos[q]] += share
				} else {
					stamp[q], pos[q] = gen, int32(len(idx))
					idx, val = append(idx, q), append(val, 0+share)
				}
			}
		}
		// Keep the positive entries, in order, and charge their in-degrees
		// to the level after this one.
		n, cost := 0, int64(0)
		for i, q := range idx {
			if v := val[i]; v > 0 {
				idx[n], val[n] = q, v
				n++
				cost += inOff[q+1] - inOff[q]
			}
		}
		next.Idx, next.Val = idx[:n], val[:n]
		st.cost = cost
	}

	kSlot := e.slot(k)
	zByLevel := append(e.zByLevel[:0], sparse.Vector{}) // level 0 unused
	defer func() { e.zByLevel = zByLevel[:0] }()
	zSum := 0.0

	for ell := 1; ell <= maxDepth; ell++ {
		if e.stopped() {
			return ell - 1, zSum
		}
		// Nodes first reached at depth ell−1 become sources from here on.
		for _, q := range e.srcStates[kSlot].levels[ell-1].Idx {
			e.slot(q)
		}
		var cost int64
		for i := range e.srcStates {
			cost += e.srcStates[i].cost
		}
		if edges+cost >= budget {
			return ell - 1, zSum
		}
		edges += cost
		// Grow the from-k distribution to level ell.
		extend(kSlot)
		if e.srcStates[kSlot].levels[ell].Len() == 0 {
			// walk from k dies out entirely (dead ends): Z is complete
			return ell - 1, zSum
		}
		// Give the discovered sources the levels the subtraction needs.
		for si := range e.srcStates {
			if e.stopped() {
				return ell - 1, zSum
			}
			if int32(si) != kSlot {
				extend(int32(si))
			}
		}

		// Z_ℓ(k,q) = c^ℓ (Pᵀ)^ℓ(k,q)² − Σ_{ℓ'=1}^{ℓ−1} Σ_{q'} c^{ℓ'} (Pᵀ)^{ℓ'}(q',q)² Z_{ℓ−ℓ'}(k,q'),
		// scattered into a new Z vector in first-touch order.
		nz := len(zByLevel)
		if nz < cap(zByLevel) {
			zByLevel = zByLevel[:nz+1]
		} else {
			zByLevel = append(zByLevel, sparse.Vector{})
		}
		zell := &zByLevel[nz]
		idx, val := zell.Idx[:0], zell.Val[:0]
		stamp, pos, gen := e.stamp, e.pos, e.nextGen()
		cl := e.cPow[ell]
		kLevel := &e.srcStates[kSlot].levels[ell]
		for i, q := range kLevel.Idx {
			p := kLevel.Val[i]
			// kLevel's entries are distinct: each is a first touch.
			stamp[q], pos[q] = gen, int32(len(idx))
			idx, val = append(idx, q), append(val, 0+cl*p*p)
		}
		for lp := 1; lp < ell; lp++ {
			zPrev := &zByLevel[ell-lp]
			clp := e.cPow[lp]
			for i, qp := range zPrev.Idx {
				zval := zPrev.Val[i]
				if zval == 0 {
					continue
				}
				lv := &e.srcStates[e.srcSlot[qp]].levels[lp]
				for j, q := range lv.Idx {
					p := lv.Val[j]
					if stamp[q] == gen {
						val[pos[q]] += -clp * p * p * zval
					} else {
						stamp[q], pos[q] = gen, int32(len(idx))
						idx, val = append(idx, q), append(val, 0+-clp*p*p*zval)
					}
				}
			}
		}
		sum := 0.0
		for i, v := range val {
			if v < 0 { // numerical noise; Z is a probability mass
				val[i], v = 0, 0
			}
			sum += v
		}
		zell.Idx, zell.Val = idx, val
		zSum += sum
	}
	return maxDepth, zSum
}

// nextGen starts a new vector under construction: no node is in it.
func (e *Estimator) nextGen() uint32 {
	e.gen++
	if e.gen == 0 { // wrapped: old stamps would read as current
		clear(e.stamp)
		e.gen = 1
	}
	return e.gen
}

// Request names one node and its pair-sample allowance for Batch.
// TargetDepth and EdgeBudget (Algorithm-3 runs only) follow the
// ImprovedParams semantics; zero values select the paper's defaults.
type Request struct {
	Node        graph.NodeID
	Samples     int
	TargetDepth int
	EdgeBudget  int64
}

// Options configures a Batch run.
type Options struct {
	C        float64 // decay factor
	Improved bool    // Algorithm 3 instead of Algorithm 2
	Workers  int     // parallel workers (≤1 serial)
	Seed     uint64  // base seed
	// Pool, when non-nil, supplies the per-worker Estimators (and takes
	// them back) instead of constructing them per call. An Estimator owns
	// O(n) scratch, so a query service calling Batch per request wants
	// this. The pool's graph and decay must match; a mismatch falls back
	// to fresh construction.
	Pool *EstimatorPool
	// Index, when non-nil, caches chunk meet counts and exploration
	// results across Batch calls. It binds to the first (graph, C, Seed)
	// triple that uses it; mismatched runs bypass it. Because chunk
	// streams are keyed by node — not by request — cached and freshly
	// sampled chunks are interchangeable bit for bit, so the index is a
	// pure amortization layer: it changes nothing but the walking time.
	Index *SampleIndex
	// Lender, when non-nil, adds a helper for every CPU it has idle when
	// the run starts (see Lender). Like Workers, it changes nothing but
	// the wall time.
	Lender *Lender
}

// EstimatorPool recycles Estimators — and their O(n) vector-building and
// source-index scratch — across Batch calls. Safe for concurrent use.
type EstimatorPool struct {
	g    *graph.Graph
	c    float64
	pool sync.Pool
}

// NewEstimatorPool returns a pool producing estimators over g with decay c.
func NewEstimatorPool(g *graph.Graph, c float64) *EstimatorPool {
	return &EstimatorPool{g: g, c: c}
}

// get returns a pooled (or fresh) estimator; seed only matters until the
// first Reseed, and Batch reseeds per chunk.
func (p *EstimatorPool) get(seed uint64) *Estimator {
	if e, ok := p.pool.Get().(*Estimator); ok {
		return e
	}
	return NewEstimator(p.g, p.c, seed)
}

// put takes an estimator back; its cancellation flag is detached first.
func (p *EstimatorPool) put(e *Estimator) {
	e.SetStop(nil)
	p.pool.Put(e)
}

// chunkSeed derives the RNG stream of one (node, chunk) cell. The two odd
// multipliers decorrelate the lattice before rng.New's splitmix finalizer.
// Keying on the node — not the request index — makes a chunk's stream a
// source-independent property of the graph, which is what lets a
// SampleIndex share chunk results across queries: any request that needs
// chunk c of node k draws the identical stream. The flip side is that two
// requests naming the same node in one Batch would draw correlated
// (identical) streams — callers must not duplicate nodes, and none do
// (core issues one request per touched node).
func chunkSeed(seed uint64, node graph.NodeID, chunk int) uint64 {
	return seed ^ (0x9e3779b97f4a7c15 * (uint64(node) + 1)) ^ (0xbf58476d1ce4e5b9 * uint64(chunk+1))
}

// reqPlan is one request's state in a Batch run.
type reqPlan struct {
	samples int
	direct  bool       // out[i] already final (trivial in-degree cases)
	ek      exploreKey // normalized Algorithm-3 exploration parameters
	// explored is released once lk and zSum are final. The request's
	// sample chunks wait on it; in Algorithm-2 mode it is never held.
	explored sync.WaitGroup
	lk       int     // Algorithm-3 prefix depth
	zSum     float64 // deterministic first-meeting mass
}

// chunkRef is one sample chunk of request req: the walk pairs from
// chunk·chunkSamples on, samples of them.
type chunkRef struct {
	req     int32
	chunk   int32
	samples int32
}

// batch is one BatchCtx run. Every work unit is listed before any runs:
// the explorations, then the sample chunks.
type batch struct {
	g    *graph.Graph
	reqs []Request
	opt  Options
	pool *EstimatorPool // nil when opt.Pool does not fit the graph
	ix   *SampleIndex
	stop atomic.Bool

	out      []float64
	plans    []reqPlan
	explores []int32      // requests to explore, largest edge budget first
	chunks   []chunkRef   // chunks of the requests explored last come first
	meets    []int64      // per chunk
	next     atomic.Int64 // the next unit to take: explores, then chunks
}

// newBatch plans a run: the trivial in-degree answers, each exploration's
// normalized parameters, and the chunk list. Chunk boundaries are a pure
// function of the requests (chunkSamples is a constant), never of the
// worker count.
func newBatch(g *graph.Graph, reqs []Request, opt Options) *batch {
	b := &batch{
		g:     g,
		reqs:  reqs,
		opt:   opt,
		out:   make([]float64, len(reqs)),
		plans: make([]reqPlan, len(reqs)),
	}
	for i, req := range reqs {
		p := &b.plans[i]
		p.samples = max(req.Samples, 1)
		if !opt.Improved {
			continue
		}
		switch g.InDegree(req.Node) {
		case 0:
			b.out[i], p.direct = 1, true
		case 1:
			b.out[i], p.direct = 1-opt.C, true
		default:
			ip := ImprovedParams{
				Samples:     p.samples,
				TargetDepth: req.TargetDepth,
				EdgeBudget:  req.EdgeBudget,
			}
			ip.normalize(opt.C)
			p.ek = exploreKey{node: req.Node, depth: int32(ip.TargetDepth), budget: ip.EdgeBudget}
			p.explored.Add(1)
			b.explores = append(b.explores, int32(i))
		}
	}
	// The largest budgets start first, so the longest explorations overlap
	// the most sampling. Their chunks go last: a worker that reaches a
	// chunk whose node is still being explored waits for it.
	slices.SortStableFunc(b.explores, func(x, y int32) int {
		return cmp.Compare(b.plans[y].ek.budget, b.plans[x].ek.budget)
	})
	addChunks := func(i int32) {
		for c, left := 0, b.plans[i].samples; left > 0; c++ {
			cs := min(left, chunkSamples)
			b.chunks = append(b.chunks, chunkRef{req: i, chunk: int32(c), samples: int32(cs)})
			left -= cs
		}
	}
	if opt.Improved {
		for j := len(b.explores) - 1; j >= 0; j-- {
			addChunks(b.explores[j])
		}
	} else {
		for i := range reqs {
			addChunks(int32(i))
		}
	}
	b.meets = make([]int64, len(b.chunks))
	return b
}

// run drains the schedule on the run's workers plus a helper for every
// CPU l lends (l may be nil), and returns once all of them have stopped.
// A lone worker runs on the calling goroutine. A panic in any of them
// stops the run and is raised again on the calling goroutine after the
// join, where the caller's recover (a Service worker's) contains it.
func (b *batch) run(workers int, l *Lender) {
	units := len(b.explores) + len(b.chunks)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
	drain := func(i int, l *Lender) {
		defer func() {
			if v := recover(); v != nil {
				b.stop.Store(true)
				if l != nil {
					// Only a return follows a reclaim, so a helper
					// that panics still holds its CPU.
					l.giveBack()
				}
				mu.Lock()
				if panicked == nil {
					panicked = v
				}
				mu.Unlock()
			}
		}()
		b.work(i, l)
	}
	spawn := func(i int, l *Lender) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(i, l)
		}()
	}
	if l != nil {
		for h := workers; h < units && l.borrow(); h++ {
			spawn(h, l)
		}
	}
	if workers == 1 || units <= 1 {
		drain(0, nil)
	} else {
		for i := range workers {
			spawn(i, nil)
		}
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// work takes units in schedule order until none are left or the run is
// cancelled, on an estimator of its own: pooled when the pool fits, seeded
// by i, though the seed only matters until the first Reseed and every
// chunk reseeds. Every exploration is taken before any chunk, so a chunk
// only ever waits for an exploration some worker is already running. A
// helper on a CPU lent by l (nil for the run's own workers) also stops at
// a unit boundary once l reclaims the CPU, and otherwise gives it back
// when it stops.
func (b *batch) work(i int, l *Lender) {
	var e *Estimator
	if b.pool != nil {
		e = b.pool.get(b.opt.Seed + uint64(i))
		defer b.pool.put(e)
	} else {
		e = NewEstimator(b.g, b.opt.C, b.opt.Seed+uint64(i))
	}
	e.SetStop(&b.stop)
	for !b.stop.Load() {
		if l != nil && l.reclaimed() {
			return
		}
		u := int(b.next.Add(1) - 1)
		if u < len(b.explores) {
			b.explore(e, int(b.explores[u]))
		} else if u < len(b.explores)+len(b.chunks) {
			b.sample(e, u-len(b.explores))
		} else {
			break
		}
	}
	if l != nil {
		l.giveBack()
	}
}

// explore runs (or looks up) request i's deterministic exploration.
func (b *batch) explore(e *Estimator, i int) {
	p := &b.plans[i]
	defer p.explored.Done()
	// The exploration is a pure function of the normalized key, so a cached
	// result is the bit-identical value recomputation would produce. A run
	// cancelled mid-explore returns a truncated (lk, zSum) — never cached;
	// the whole Batch output is discarded on cancellation anyway.
	if b.ix != nil {
		if v, ok := b.ix.exploreResult(p.ek); ok {
			p.lk, p.zSum = v.lk, v.zSum
			return
		}
	}
	p.lk, p.zSum = e.explore(p.ek.node, p.ek.budget, int(p.ek.depth))
	if b.ix != nil && !e.stopped() {
		b.ix.putExplore(p.ek, exploreVal{lk: p.lk, zSum: p.zSum})
	}
}

// sample runs (or looks up) chunk ci's meet count once its node's prefix
// depth is known.
func (b *batch) sample(e *Estimator, ci int) {
	ch := b.chunks[ci]
	p := &b.plans[ch.req]
	p.explored.Wait()
	if e.stopped() {
		return // the exploration was abandoned; so is the run
	}
	node := b.reqs[ch.req].Node
	// The key carries no Improved/Basic bit: Algorithm 2 runs the same
	// trials at lk=0 (p.lk stays 0 when nothing is explored), so their
	// chunk values are interchangeable and an index shared across
	// exactsim and exactsim-basic queriers stays exact. The chunk golden
	// table's prefix-0 rows, recorded from Algorithm 2's own trial loop,
	// pin that identity against drift in the walk engine.
	key := chunkKey{node: node, lk: int32(p.lk), chunk: ch.chunk, size: ch.samples}
	if b.ix != nil {
		if m, ok := b.ix.chunkMeets(key); ok {
			b.meets[ci] = m
			return
		}
	}
	e.Reseed(chunkSeed(b.opt.Seed, node, int(ch.chunk)))
	m := e.meets(node, p.lk, int(ch.samples))
	b.meets[ci] = m
	// A chunk interrupted mid-loop holds a partial count; the stop
	// flag is monotone, so a false read here proves the loop ran to
	// completion and the count is the chunk's true value.
	if b.ix != nil && !e.stopped() {
		b.ix.putChunk(key, m)
	}
}

// merge applies the estimator formula once per node. It is exact: chunk
// meet counts are integers, so summation order cannot perturb the result.
func (b *batch) merge() []float64 {
	totals := make([]int64, len(b.reqs))
	for ci, ch := range b.chunks {
		totals[ch.req] += b.meets[ci]
	}
	cPow := cPowTable(b.opt.C)
	for i := range b.plans {
		p := &b.plans[i]
		if p.direct {
			continue
		}
		if b.opt.Improved {
			b.out[i] = finishImproved(b.opt.C, cPow[p.lk], p.zSum, totals[i], p.samples)
		} else {
			b.out[i] = float64(int64(p.samples)-totals[i]) / float64(p.samples)
		}
	}
	return b.out
}

// Batch estimates D(k,k) for every request. Each sample chunk runs on its
// own RNG stream derived from (Seed, node, chunk index), so results are
// bit-for-bit reproducible regardless of worker count, scheduling, or —
// when Options.Index is set — cache hit pattern; the property the paper's
// parallelization paragraph demands of a ground-truth tool. Requests must
// name distinct nodes (see chunkSeed).
func Batch(g *graph.Graph, reqs []Request, opt Options) []float64 {
	out, _ := BatchCtx(context.Background(), g, reqs, opt)
	return out
}

// BatchCtx is Batch under a context: cancellation is observed between
// scheduling units and — via the estimators' stop flag — inside the
// per-chunk sample and exploration loops, so even a single
// astronomically-sampled node cannot outlive its deadline by more than a
// few thousand walk pairs. On cancellation the partial output is discarded
// and ctx.Err() returned.
//
// The run is one schedule, listed in full before any of it runs: sample
// counts come from the requests, and the trivial in-degree answers need no
// exploration. Workers first take the Algorithm-3 explorations, which use
// no randomness, largest edge budget first; then the fixed-size sample
// chunks — the fat-request remedy: the source node's R(k) dwarfs the
// median allowance, and whole-request scheduling would serialize sampling
// behind it. A chunk needs nothing from its node's exploration but the
// prefix depth ℓ(k), so it waits for that one exploration (which stops
// early on cancellation) and for nothing else; the chunks of the requests
// explored first, which finish last, are taken last. Once every unit is
// done, integer meet counts merge per request (addition of int64s — exact,
// order-free) and the estimator formula runs once per node. Helpers on
// CPUs lent by Options.Lender take units from the same schedule beside
// the Workers, and BatchCtx joins them before it returns.
func BatchCtx(ctx context.Context, g *graph.Graph, reqs []Request, opt Options) ([]float64, error) {
	workers := max(opt.Workers, 1)
	b := newBatch(g, reqs, opt)
	// A race between cancellation and completion only decides whether
	// workers abandon in-flight units; their partial results are
	// discarded once BatchCtx sees ctx.Err().
	unwatch := context.AfterFunc(ctx, func() { b.stop.Store(true) })
	defer unwatch()

	if p := opt.Pool; p != nil && p.g == g && p.c == opt.C {
		b.pool = p
	}
	if opt.Index != nil && opt.Index.bind(g, opt.C, opt.Seed) {
		b.ix = opt.Index
	}
	b.run(workers, opt.Lender)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.merge(), nil
}

// ExactByIteration computes D exactly by value iteration on the pair chain
//
//	M(u,v) = (c / d_in(u)d_in(v)) Σ_{u'∈I(u)} Σ_{v'∈I(v)} ([u'=v'] + [u'≠v']·M(u',v'))
//
// with D(k,k) = 1 − M(k,k). After `iters` rounds the error is ≤ c^iters.
// O(iters·m²) time and O(n²) space: a small-graph oracle used to validate
// both estimators and to drive the deterministic exact-D ExactSim variant.
func ExactByIteration(g *graph.Graph, c float64, iters int) []float64 {
	n := g.N()
	cur := make([]float64, n*n)
	nxt := make([]float64, n*n)
	for it := 0; it < iters; it++ {
		for u := 0; u < n; u++ {
			iu := g.InNeighbors(int32(u))
			for v := 0; v < n; v++ {
				iv := g.InNeighbors(int32(v))
				if len(iu) == 0 || len(iv) == 0 {
					nxt[u*n+v] = 0
					continue
				}
				sum := 0.0
				for _, up := range iu {
					for _, vp := range iv {
						if up == vp {
							sum++
						} else {
							sum += cur[int(up)*n+int(vp)]
						}
					}
				}
				nxt[u*n+v] = c * sum / float64(len(iu)*len(iv))
			}
		}
		cur, nxt = nxt, cur
	}
	d := make([]float64, n)
	for k := 0; k < n; k++ {
		d[k] = 1 - cur[k*n+k]
	}
	return d
}
