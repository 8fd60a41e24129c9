package eval

import (
	"math"
	"testing"

	"github.com/exactsim/exactsim/internal/gen"
	"github.com/exactsim/exactsim/internal/powermethod"
	"github.com/exactsim/exactsim/internal/sparse"
)

const c = 0.6

func TestMaxError(t *testing.T) {
	got := []float64{0.1, 0.5, 0.9}
	truth := []float64{0.1, 0.45, 1.0}
	if e := MaxError(got, truth); math.Abs(e-0.1) > 1e-15 {
		t.Fatalf("MaxError = %g", e)
	}
	if e := MaxError(truth, truth); e != 0 {
		t.Fatalf("self MaxError = %g", e)
	}
}

func TestMaxErrorPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	MaxError([]float64{1}, []float64{1, 2})
}

func TestPrecisionAtKPerfect(t *testing.T) {
	truth := []float64{1.0, 0.9, 0.8, 0.7, 0.1, 0.05}
	if p := PrecisionAtK(truth, truth, 3, 0); p != 1 {
		t.Fatalf("identical vectors precision %g", p)
	}
}

func TestPrecisionAtKDisjoint(t *testing.T) {
	truth := []float64{1.0, 0.9, 0.8, 0.0, 0.0, 0.0}
	approx := []float64{1.0, 0.0, 0.0, 0.9, 0.8, 0.7}
	// truth top-2 (excluding source 0): {1,2}; approx top-2: {3,4} → 0,
	// but ties at 0.0 in truth don't matter since approx picked 0.9/0.8.
	if p := PrecisionAtK(approx, truth, 2, 0); p != 0 {
		t.Fatalf("disjoint precision %g", p)
	}
}

func TestPrecisionAtKPartial(t *testing.T) {
	truth := []float64{1.0, 0.9, 0.8, 0.7, 0.0}
	approx := []float64{1.0, 0.9, 0.0, 0.8, 0.7}
	// truth top-3: {1,2,3}; approx top-3: {1,3,4} → 2/3
	if p := PrecisionAtK(approx, truth, 3, 0); math.Abs(p-2.0/3) > 1e-15 {
		t.Fatalf("partial precision %g", p)
	}
}

func TestPrecisionAtKTies(t *testing.T) {
	// Nodes 2 and 3 tie at the k-th value: either is a valid member.
	truth := []float64{1.0, 0.9, 0.5, 0.5, 0.1}
	approxA := []float64{1.0, 0.9, 0.5, 0.0, 0.0} // picks node 2
	approxB := []float64{1.0, 0.9, 0.0, 0.5, 0.0} // picks node 3
	if p := PrecisionAtK(approxA, truth, 2, 0); p != 1 {
		t.Fatalf("tie variant A precision %g", p)
	}
	if p := PrecisionAtK(approxB, truth, 2, 0); p != 1 {
		t.Fatalf("tie variant B precision %g", p)
	}
}

func TestPrecisionAtKZeroK(t *testing.T) {
	if p := PrecisionAtK([]float64{1}, []float64{1}, 0, -1); p != 1 {
		t.Fatalf("k=0 precision %g", p)
	}
}

func TestPoolRanksExactAlgorithmFirst(t *testing.T) {
	// Star graph: true top-k of a leaf is the other leaves (S = c), and
	// the center scores 0. A "good" algorithm submits leaves; a "bad" one
	// submits the center plus junk. Pooling must prefer the good one.
	g := gen.Star(12)
	truth := powermethod.Compute(g, powermethod.Options{C: c, L: 40})
	src := int32(1)
	good := sparse.TopK(truth.Row(int(src)), 5, src)
	bad := []sparse.Entry{{Idx: 0, Val: 0.9}} // center: actually S=0
	for j := int32(2); len(bad) < 5; j++ {
		if j != src {
			bad = append(bad, sparse.Entry{Idx: j, Val: 0.01})
		}
	}
	res := Pool(g, c, src, 5, []PoolEntry{
		{Algorithm: "good", TopK: good},
		{Algorithm: "bad", TopK: bad},
	}, 20000, 7)
	if res.Precision["good"] != 1 {
		t.Fatalf("good algorithm precision %g", res.Precision["good"])
	}
	if res.Precision["bad"] >= res.Precision["good"] {
		t.Fatalf("bad %g should trail good %g",
			res.Precision["bad"], res.Precision["good"])
	}
	// the pooled top-k must not contain the center (its true score is 0)
	for _, e := range res.PooledTopK {
		if e.Idx == 0 {
			t.Fatal("center leaked into pooled ground truth")
		}
	}
}

func TestPoolPrecisionRelative(t *testing.T) {
	// Pool with a single algorithm: precision is trivially ≥ its overlap
	// with itself, demonstrating the "relative" caveat the paper stresses.
	g := gen.Clique(8)
	entries := []PoolEntry{{Algorithm: "only", TopK: []sparse.Entry{
		{Idx: 1, Val: 0.3}, {Idx: 2, Val: 0.2},
	}}}
	res := Pool(g, c, 0, 2, entries, 5000, 3)
	if res.Precision["only"] != 1 {
		t.Fatalf("single-entry pool precision %g", res.Precision["only"])
	}
}

func TestPoolEmptyTopK(t *testing.T) {
	g := gen.Clique(4)
	res := Pool(g, c, 0, 3, []PoolEntry{{Algorithm: "empty"}}, 100, 1)
	if res.Precision["empty"] != 0 {
		t.Fatalf("empty algorithm precision %g", res.Precision["empty"])
	}
}

func TestPoolScoresMatchSimRank(t *testing.T) {
	// The MC adjudication scores must approximate true SimRank.
	g := gen.Clique(6)
	truth := powermethod.Compute(g, powermethod.Options{C: c, L: 40})
	entries := []PoolEntry{{Algorithm: "a", TopK: []sparse.Entry{
		{Idx: 1, Val: 0}, {Idx: 2, Val: 0}, {Idx: 3, Val: 0},
	}}}
	res := Pool(g, c, 0, 3, entries, 50000, 11)
	for _, e := range res.PooledTopK {
		if math.Abs(e.Val-truth.At(0, int(e.Idx))) > 0.01 {
			t.Fatalf("pool score for %d: %g vs truth %g",
				e.Idx, e.Val, truth.At(0, int(e.Idx)))
		}
	}
}
