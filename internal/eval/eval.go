// Package eval implements the paper's evaluation methodology (§4): the
// MaxError and Precision@k metrics, and the pooling protocol of §2 for
// comparing top-k algorithms when no ground truth is available.
package eval

import (
	"fmt"
	"math"
	"sort"

	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/sparse"
	"github.com/exactsim/exactsim/internal/walk"
)

// MaxError returns max_j |got(j) − truth(j)| (the paper's MaxError metric).
func MaxError(got, truth []float64) float64 {
	if len(got) != len(truth) {
		panic(fmt.Sprintf("eval: length mismatch %d vs %d", len(got), len(truth)))
	}
	worst := 0.0
	for i := range got {
		if d := math.Abs(got[i] - truth[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// PrecisionAtK returns the fraction of the approximate top-k that belongs
// to the true top-k (the paper's Precision@k, with k=500 in §4). Ties in
// the ground truth are handled generously: any node whose true score ties
// the k-th true score (within tieEps) counts as a valid member, matching
// how the paper treats indistinguishable candidates.
func PrecisionAtK(approx, truth []float64, k int, source graph.NodeID) float64 {
	if k <= 0 {
		return 1
	}
	approxTop := sparse.TopK(approx, k, source)
	truthTop := sparse.TopK(truth, k, source)
	if len(truthTop) == 0 {
		return 1
	}
	const tieEps = 1e-12
	kth := truthTop[len(truthTop)-1].Val
	valid := make(map[int32]bool, 2*k)
	for _, e := range truthTop {
		valid[e.Idx] = true
	}
	// widen with tied nodes beyond position k
	for j, v := range truth {
		if int32(j) != source && v >= kth-tieEps {
			valid[int32(j)] = true
		}
	}
	hit := 0
	for _, e := range approxTop {
		if valid[e.Idx] {
			hit++
		}
	}
	return float64(hit) / float64(len(approxTop))
}

// PoolEntry is one algorithm's contribution to a pool.
type PoolEntry struct {
	Algorithm string
	TopK      []sparse.Entry
}

// PoolResult reports the pooling adjudication.
type PoolResult struct {
	// PooledTopK is the best-possible top-k assembled from the union of
	// all candidates, ranked by high-precision Monte-Carlo SimRank.
	PooledTopK []sparse.Entry
	// Precision maps algorithm name → fraction of its top-k that appears
	// in PooledTopK.
	Precision map[string]float64
}

// Pool implements the paper's §2 pooling protocol: merge the top-k
// candidate sets of all algorithms, estimate S(source, candidate) for each
// pooled node with `samples` √c-walk pairs, take the best k as the pooled
// "ground truth", and score each algorithm's precision against it.
//
// As the paper stresses, pooled precision is relative — valid only for
// comparing the participants — which is exactly how the harness uses it.
func Pool(g *graph.Graph, c float64, source graph.NodeID, k int,
	entries []PoolEntry, samples int, seed uint64) PoolResult {

	pool := map[int32]bool{}
	for _, e := range entries {
		for _, cand := range e.TopK {
			if cand.Idx != source {
				pool[cand.Idx] = true
			}
		}
	}
	candidates := make([]int32, 0, len(pool))
	for v := range pool {
		candidates = append(candidates, v)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })

	// High-precision MC adjudication.
	w := walk.NewWalker(g, c, seed)
	scored := make([]sparse.Entry, len(candidates))
	for i, v := range candidates {
		met := 0
		for s := 0; s < samples; s++ {
			if w.PairMeetsFrom(source, v) {
				met++
			}
		}
		scored[i] = sparse.Entry{Idx: v, Val: float64(met) / float64(samples)}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Val != scored[j].Val {
			return scored[i].Val > scored[j].Val
		}
		return scored[i].Idx < scored[j].Idx
	})
	if len(scored) > k {
		scored = scored[:k]
	}
	inPool := make(map[int32]bool, len(scored))
	for _, e := range scored {
		inPool[e.Idx] = true
	}
	res := PoolResult{PooledTopK: scored, Precision: map[string]float64{}}
	for _, e := range entries {
		if len(e.TopK) == 0 {
			res.Precision[e.Algorithm] = 0
			continue
		}
		hit := 0
		for _, cand := range e.TopK {
			if inPool[cand.Idx] {
				hit++
			}
		}
		res.Precision[e.Algorithm] = float64(hit) / float64(len(e.TopK))
	}
	return res
}
