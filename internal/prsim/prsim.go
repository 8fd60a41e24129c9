// Package prsim implements the PRSim baseline (Wei et al., SIGMOD 2019;
// paper §2): an index-based single-source method whose cost scales with
// ‖π‖², making it the strongest prior art on power-law graphs.
//
// Index: the top hub nodes by walk-decay PageRank get precomputed reverse
// ℓ-hop PPR vectors r_k^ℓ(j) = π_j^ℓ(k) (computed by iterating √c·Pᵀ from
// e_k with sparse truncation), plus Monte-Carlo estimates of their D(k,k).
//
// Query (paper eq. 7): S(i,j) = (1/(1−√c)²)·Σ_ℓ Σ_k π_i^ℓ(k)·π_j^ℓ(k)·D(k,k)
// splits at the hub boundary. The hub part is evaluated exactly against the
// index. The non-hub tail is estimated by sampling: a √c-walk from the
// source emits a stop position (ℓ,k) with probability π_i^ℓ(k); a
// walk-pair trial at k estimates D(k,k); and an importance-weighted
// reverse walk along out-edges lands on a node j* with
// E[weight·1{j*=j}] = P^ℓ(k,j), scattering an unbiased contribution.
//
// Port notes (DESIGN.md §4): the original evaluates the source side by
// sampling as well; we compute the forward vectors exactly (an O(m·L) term
// shared with ParSim/ExactSim) which preserves the index/error tradeoffs
// the paper's figures measure.
package prsim

import (
	"context"
	"math"
	"sort"
	"time"

	"github.com/exactsim/exactsim/internal/diag"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/linalg"
	"github.com/exactsim/exactsim/internal/ppr"
	"github.com/exactsim/exactsim/internal/rng"
	"github.com/exactsim/exactsim/internal/sparse"
)

// Params configures Build.
type Params struct {
	C   float64 // decay factor
	Eps float64 // error target; drives truncation, levels, sample counts
	// HubCount is the number of PageRank-ranked hub nodes to index.
	// 0 selects max(32, n/64) capped at 4096.
	HubCount int
	// SampleFactor scales the Monte-Carlo sample counts (hub D estimates
	// and per-query tail walks); 0 selects 1.0.
	SampleFactor float64
	Workers      int
	Seed         uint64
}

func (p *Params) normalize(n int) {
	if p.SampleFactor == 0 {
		p.SampleFactor = 1
	}
	if p.HubCount == 0 {
		p.HubCount = n / 64
		if p.HubCount < 32 {
			p.HubCount = 32
		}
		if p.HubCount > 4096 {
			p.HubCount = 4096
		}
	}
	if p.HubCount > n {
		p.HubCount = n
	}
}

// Index is the PRSim hub index.
type Index struct {
	g        *graph.Graph
	op       *linalg.Operator
	p        Params
	L        int
	hubs     []graph.NodeID    // sorted by PageRank, descending
	hubPos   []int32           // node → hub slot, -1 for non-hubs
	rev      [][]sparse.Vector // rev[slot][ℓ] = scaled reverse vector
	dHub     []float64         // D̂ for hubs, by slot
	PrepTime time.Duration
}

// Build computes PageRank, selects hubs, precomputes their reverse vectors
// and D estimates.
func Build(g *graph.Graph, p Params) *Index {
	ix, _ := BuildCtx(context.Background(), g, p)
	return ix
}

// BuildCtx is Build under a context: cancellation is observed between the
// per-hub reverse-vector expansions and inside the hub D estimation.
func BuildCtx(ctx context.Context, g *graph.Graph, p Params) (*Index, error) {
	start := time.Now()
	n := g.N()
	p.normalize(n)
	op := linalg.NewOperator(g, 1)
	L := ppr.Levels(p.C, p.Eps)
	sqrtC := math.Sqrt(p.C)

	pr, err := ppr.WalkPageRankCtx(ctx, op, p.C, L)
	if err != nil {
		return nil, err
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if pr[order[a]] != pr[order[b]] {
			return pr[order[a]] > pr[order[b]]
		}
		return order[a] < order[b]
	})
	hubs := make([]graph.NodeID, p.HubCount)
	hubPos := make([]int32, n)
	for i := range hubPos {
		hubPos[i] = -1
	}
	for i := 0; i < p.HubCount; i++ {
		hubs[i] = int32(order[i])
		hubPos[order[i]] = int32(i)
	}

	// Reverse vectors: r^ℓ = (1−√c)(√c·Pᵀ)^ℓ e_k, truncated like the
	// sparse linearization (Lemma 2's threshold).
	threshold := (1 - sqrtC) * (1 - sqrtC) * p.Eps
	rev := make([][]sparse.Vector, p.HubCount)
	acc := sparse.NewAccumulator(n)
	for slot, k := range hubs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Each ApplyPTSparse builds a fresh vector of exact capacity, so
		// levels are retained as they are.
		levels := make([]sparse.Vector, 0, L+1)
		cur := sparse.Vector{Idx: []int32{k}, Val: []float64{1 - sqrtC}}
		levels = append(levels, cur)
		for ell := 1; ell <= L; ell++ {
			cur = op.ApplyPTSparse(&cur, acc, sqrtC, threshold)
			levels = append(levels, cur)
			if cur.Len() == 0 {
				break
			}
		}
		rev[slot] = levels
	}

	// Hub D estimates: PageRank-proportional allocation out of a total of
	// SampleFactor·ln n/ε² pairs (PRSim's source-independent counterpart of
	// ExactSim's π-allocation), floored at 64 and capped per node.
	ln := math.Log(float64(n))
	if ln < 1 {
		ln = 1
	}
	total := p.SampleFactor * ln / (p.Eps * p.Eps)
	reqs := make([]diag.Request, len(hubs))
	for slot, k := range hubs {
		rk := int(math.Ceil(total * pr[k]))
		if rk < 64 {
			rk = 64
		}
		if rk > 1<<18 {
			rk = 1 << 18
		}
		reqs[slot] = diag.Request{Node: k, Samples: rk}
	}
	dHub, err := diag.BatchCtx(ctx, g, reqs, diag.Options{
		C: p.C, Improved: true, Workers: p.Workers, Seed: p.Seed,
	})
	if err != nil {
		return nil, err
	}

	return &Index{
		g: g, op: op, p: p, L: L,
		hubs: hubs, hubPos: hubPos, rev: rev, dHub: dHub,
		PrepTime: time.Since(start),
	}, nil
}

// Bytes returns the index footprint (reverse vectors + hub metadata + D̂).
func (ix *Index) Bytes() int64 {
	var b int64
	for _, levels := range ix.rev {
		for i := range levels {
			b += levels[i].Bytes()
		}
	}
	b += int64(len(ix.hubs))*4 + int64(len(ix.hubPos))*4 + int64(len(ix.dHub))*8
	return b
}

// Params returns the normalized build parameters.
func (ix *Index) Params() Params { return ix.p }

// HubCount returns the number of indexed hubs.
func (ix *Index) HubCount() int { return len(ix.hubs) }

// SingleSource answers a PRSim single-source query.
func (ix *Index) SingleSource(source graph.NodeID) []float64 {
	s, _ := ix.SingleSourceCtx(context.Background(), source)
	return s
}

// SingleSourceCtx is SingleSource with cancellation checked per forward
// level and every few thousand tail samples (the dominant query cost).
func (ix *Index) SingleSourceCtx(ctx context.Context, source graph.NodeID) ([]float64, error) {
	n := ix.g.N()
	c := ix.p.C
	sqrtC := math.Sqrt(c)
	invNorm := 1 / ((1 - sqrtC) * (1 - sqrtC))
	scores := make([]float64, n)

	// Exact forward vectors for the source.
	hops, err := ppr.HopsCtx(ctx, ix.op, source, ppr.Config{C: c, L: ix.L})
	if err != nil {
		return nil, err
	}

	// Hub part: scatter π_i^ℓ(k)·D̂(k)·r_k^ℓ for every indexed k.
	for ell := 0; ell <= ix.L && ell < len(hops); ell++ {
		h := &hops[ell]
		for t, k := range h.Idx {
			slot := ix.hubPos[k]
			if slot < 0 {
				continue
			}
			levels := ix.rev[slot]
			if ell >= len(levels) {
				continue
			}
			w := invNorm * h.Val[t] * ix.dHub[slot]
			rv := &levels[ell]
			for u, j := range rv.Idx {
				scores[j] += w * rv.Val[u]
			}
		}
	}

	// Non-hub tail by sampling.
	ln := math.Log(float64(n))
	if ln < 1 {
		ln = 1
	}
	rq := int(math.Ceil(ix.p.SampleFactor * ln / (ix.p.Eps * ix.p.Eps)))
	if rq > 1<<22 {
		rq = 1 << 22
	}
	r := rng.New(ix.p.Seed ^ (0xabcdef123456789 + uint64(source)))
	invRq := 1 / float64(rq)
	for s := 0; s < rq; s++ {
		if s&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ix.sampleTail(source, scores, invNorm*invRq, sqrtC, r)
	}
	scores[source] = 1
	return scores, nil
}

// sampleTail performs one tail sample: forward emission walk, D trial,
// importance-weighted reverse walk.
func (ix *Index) sampleTail(source graph.NodeID, scores []float64, scale, sqrtC float64, r *rng.RNG) {
	g := ix.g
	// Forward √c-walk with explicit decay-stop emission: arriving at node
	// v at step ℓ, emit (ℓ,v) with probability 1−√c — exactly π_i^ℓ(v).
	v := source
	ell := 0
	for {
		if r.Float64() >= sqrtC {
			break // emit at (ell, v)
		}
		in := g.InNeighbors(v)
		if len(in) == 0 {
			return // dead-end absorption: no emission
		}
		v = in[r.Intn(len(in))]
		ell++
	}
	if ix.hubPos[v] >= 0 {
		return // hub mass is handled exactly by the index
	}
	// One Bernoulli D trial at v: pair of √c-walks, no meeting → 1.
	d := 1.0
	if pairMeets(g, v, sqrtC, r) {
		d = 0
	}
	if d == 0 {
		return
	}
	// Importance-weighted reverse walk along out-edges:
	// weight = Π d_out(w_t)/d_in(w_{t+1}) makes E[weight·1{land on j}] = P^ℓ(v,j).
	w := v
	weight := 1.0
	for t := 0; t < ell; t++ {
		out := g.OutNeighbors(w)
		if len(out) == 0 {
			return
		}
		next := out[r.Intn(len(out))]
		weight *= float64(len(out)) / float64(g.InDegree(next))
		w = next
	}
	// contribution: (1/(1−√c)²)·π_i^ℓ(v)-sample · D̂ · (1−√c)(√c)^ℓ·weight
	scores[w] += scale * d * (1 - sqrtC) * math.Pow(sqrtC, float64(ell)) * weight
}

// pairMeets simulates two √c-walks from k and reports a meeting at ℓ ≥ 1.
func pairMeets(g *graph.Graph, k graph.NodeID, sqrtC float64, r *rng.RNG) bool {
	x, y := k, k
	for {
		if r.Float64() >= sqrtC || r.Float64() >= sqrtC {
			return false
		}
		xin := g.InNeighbors(x)
		yin := g.InNeighbors(y)
		if len(xin) == 0 || len(yin) == 0 {
			return false
		}
		x = xin[r.Intn(len(xin))]
		y = yin[r.Intn(len(yin))]
		if x == y {
			return true
		}
	}
}
