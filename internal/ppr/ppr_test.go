package ppr

import (
	"math"
	"testing"

	"github.com/exactsim/exactsim/internal/gen"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/linalg"
	"github.com/exactsim/exactsim/internal/rng"
)

const c = 0.6

func TestLevels(t *testing.T) {
	// L = ceil(log_{1/c}(2/eps)); for c=0.6, eps=1e-7: log(2e7)/log(1/0.6)
	want := int(math.Ceil(math.Log(2e7) / math.Log(1/0.6)))
	if got := Levels(0.6, 1e-7); got != want {
		t.Fatalf("Levels = %d want %d", got, want)
	}
	if got := Levels(0.6, 2); got != 0 {
		t.Fatalf("Levels(0.6, 2) = %d want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Levels with bad args did not panic")
		}
	}()
	Levels(0.6, 0)
}

func TestHopsOnCycle(t *testing.T) {
	// On a directed cycle each node has exactly one in-neighbor, so the
	// √c-walk is deterministic: π^ℓ has a single entry of mass
	// (1−√c)(√c)^ℓ at distance ℓ backwards.
	g := gen.Cycle(5)
	op := linalg.NewOperator(g, 1)
	sqrtC := math.Sqrt(c)
	hops := Hops(op, 0, Config{C: c, L: 6})
	for ell, h := range hops {
		if h.Len() != 1 {
			t.Fatalf("level %d has %d entries", ell, h.Len())
		}
		wantNode := int32(((0-ell)%5 + 5) % 5) // in-neighbor of node k on cycle is k-1
		wantVal := (1 - sqrtC) * math.Pow(sqrtC, float64(ell))
		if h.Idx[0] != wantNode {
			t.Fatalf("level %d at node %d want %d", ell, h.Idx[0], wantNode)
		}
		if math.Abs(h.Val[0]-wantVal) > 1e-15 {
			t.Fatalf("level %d mass %g want %g", ell, h.Val[0], wantVal)
		}
	}
}

func TestHopsMassConservation(t *testing.T) {
	// Without dead ends, Σ_ℓ Σ_k π^ℓ(k) = 1 − (√c)^{L+1}.
	g := gen.Clique(10)
	op := linalg.NewOperator(g, 1)
	L := 20
	hops := Hops(op, 3, Config{C: c, L: L})
	total := 0.0
	for i := range hops {
		total += hops[i].Sum()
	}
	want := 1 - math.Pow(math.Sqrt(c), float64(L+1))
	if math.Abs(total-want) > 1e-12 {
		t.Fatalf("total mass %g want %g", total, want)
	}
}

func TestHopsDeadEndLoseMass(t *testing.T) {
	// Path 0→1→2: source 2 walks to 1 then 0, where d_in=0 absorbs.
	g := gen.Path(3)
	op := linalg.NewOperator(g, 1)
	hops := Hops(op, 2, Config{C: c, L: 10})
	total := 0.0
	for i := range hops {
		total += hops[i].Sum()
	}
	sqrtC := math.Sqrt(c)
	// levels 0,1,2 carry (1-√c), (1-√c)√c, (1-√c)c; everything beyond is 0
	want := (1 - sqrtC) * (1 + sqrtC + c)
	if math.Abs(total-want) > 1e-15 {
		t.Fatalf("total %g want %g", total, want)
	}
	// level 3+ must be empty
	for ell := 3; ell < len(hops); ell++ {
		if hops[ell].Len() != 0 {
			t.Fatalf("level %d nonempty on path", ell)
		}
	}
}

func TestHopsSparseMatchesDense(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(50)
		b := graph.NewBuilder(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		op := linalg.NewOperator(g, 1)
		src := int32(r.Intn(n))
		cfg := Config{C: c, L: 8}
		sp := Hops(op, src, cfg)
		dn := HopsDense(op, src, cfg)
		for ell := 0; ell <= cfg.L; ell++ {
			got := sp[ell].ToDense(n)
			for k := 0; k < n; k++ {
				if math.Abs(got[k]-dn[ell][k]) > 1e-12 {
					t.Fatalf("trial %d level %d node %d: %g vs %g", trial, ell, k, got[k], dn[ell][k])
				}
			}
		}
	}
}

func TestHopsTruncationErrorBounded(t *testing.T) {
	// With threshold th, truncation error propagates additively through the
	// sub-stochastic operator √c·P, so the per-coordinate error at level ℓ
	// is at most th·ℓ plus the level's own truncation — the telescoping
	// bound behind the paper's Lemma 2. Assert error ≤ th·(ℓ+1).
	g := gen.BarabasiAlbert(200, 3, 4)
	op := linalg.NewOperator(g, 1)
	th := 1e-4
	cfg := Config{C: c, L: 10, Threshold: th}
	sp := Hops(op, 0, cfg)
	dn := HopsDense(op, 0, Config{C: c, L: 10})
	for ell := 0; ell <= 10; ell++ {
		got := sp[ell].ToDense(g.N())
		for k := 0; k < g.N(); k++ {
			if diff := math.Abs(got[k] - dn[ell][k]); diff > th*float64(ell+1) {
				t.Fatalf("level %d node %d error %g > %g", ell, k, diff, th*float64(ell+1))
			}
		}
	}
}

func TestSumAggregates(t *testing.T) {
	g := gen.Clique(6)
	op := linalg.NewOperator(g, 1)
	hops := Hops(op, 0, Config{C: c, L: 15})
	pi := Sum(op, hops)
	total := pi.Sum()
	want := 1 - math.Pow(math.Sqrt(c), 16)
	if math.Abs(total-want) > 1e-12 {
		t.Fatalf("aggregated mass %g want %g", total, want)
	}
}

func TestTotalBytes(t *testing.T) {
	g := gen.Cycle(4)
	op := linalg.NewOperator(g, 1)
	hops := Hops(op, 0, Config{C: c, L: 3})
	// 4 levels × 1 entry × 12 bytes
	if got := TotalBytes(hops); got != 48 {
		t.Fatalf("TotalBytes = %d", got)
	}
}

func TestWalkPageRankUniformOnCycle(t *testing.T) {
	// Symmetry: on a cycle all nodes have equal PageRank.
	g := gen.Cycle(8)
	op := linalg.NewOperator(g, 1)
	pr := WalkPageRank(op, c, 30)
	for i := 1; i < len(pr); i++ {
		if math.Abs(pr[i]-pr[0]) > 1e-12 {
			t.Fatalf("cycle PageRank not uniform: %g vs %g", pr[i], pr[0])
		}
	}
	sum := 0.0
	for _, v := range pr {
		sum += v
	}
	want := 1 - math.Pow(math.Sqrt(c), 31)
	if math.Abs(sum-want) > 1e-12 {
		t.Fatalf("PageRank mass %g want %g", sum, want)
	}
}

func TestWalkPageRankIsAveragePPR(t *testing.T) {
	r := rng.New(33)
	n := 30
	b := graph.NewBuilder(n)
	for i := 0; i < 120; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	g := b.Build()
	op := linalg.NewOperator(g, 1)
	L := 12
	pr := WalkPageRank(op, c, L)
	avg := make([]float64, n)
	for src := 0; src < n; src++ {
		hops := HopsDense(op, int32(src), Config{C: c, L: L})
		for _, h := range hops {
			for k, v := range h {
				avg[k] += v / float64(n)
			}
		}
	}
	for k := 0; k < n; k++ {
		if math.Abs(pr[k]-avg[k]) > 1e-12 {
			t.Fatalf("PageRank(%d) = %g, average PPR = %g", k, pr[k], avg[k])
		}
	}
}

func TestNorm2SquaredHubEffect(t *testing.T) {
	// A star's PageRank concentrates on the center → larger ‖π‖² than a
	// cycle of the same size (uniform). This is the power-law property the
	// π²-sampling optimization exploits.
	star := gen.Star(50)
	cyc := gen.Cycle(50)
	prS := WalkPageRank(linalg.NewOperator(star, 1), c, 20)
	prC := WalkPageRank(linalg.NewOperator(cyc, 1), c, 20)
	if Norm2Squared(prS) <= Norm2Squared(prC) {
		t.Fatalf("star ‖π‖²=%g should exceed cycle ‖π‖²=%g",
			Norm2Squared(prS), Norm2Squared(prC))
	}
}

func BenchmarkHopsSparse(b *testing.B) {
	g := gen.BarabasiAlbert(50000, 5, 1)
	op := linalg.NewOperator(g, 1)
	cfg := Config{C: c, L: 30, Threshold: 1e-7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hops(op, int32(i%g.N()), cfg)
	}
}

func BenchmarkHopsDense(b *testing.B) {
	g := gen.BarabasiAlbert(50000, 5, 1)
	op := linalg.NewOperator(g, 1)
	cfg := Config{C: c, L: 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HopsDense(op, int32(i%g.N()), cfg)
	}
}
