package exactsim_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	exactsim "github.com/exactsim/exactsim"
)

// newQuerier builds the named registry querier over g, failing the test
// on error.
func newQuerier(t testing.TB, name string, g *exactsim.Graph, opts ...exactsim.QuerierOption) exactsim.Querier {
	t.Helper()
	q, err := exactsim.NewQuerier(name, g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// query answers one single-source query through a fresh registry querier;
// query(t, "powermethod", g, src) is the ground-truth row.
func query(t testing.TB, name string, g *exactsim.Graph, src exactsim.NodeID, opts ...exactsim.QuerierOption) *exactsim.QueryResult {
	t.Helper()
	res, err := newQuerier(t, name, g, opts...).SingleSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPublicAPIEndToEnd exercises the facade the way README's quick start
// does: generate, query, evaluate.
func TestPublicAPIEndToEnd(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(300, 3, 7)
	truth := query(t, "powermethod", g, 5, exactsim.WithIterations(40)).Scores

	// One TopK call computes the full single-source vector and ranks it;
	// the Result it returns is the answer SingleSource would give.
	q := newQuerier(t, "exactsim", g, exactsim.WithEpsilon(1e-3), exactsim.WithSeed(1))
	top, res, err := q.TopK(context.Background(), 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if e := exactsim.MaxError(res.Scores, truth); e > 1e-3 {
		t.Fatalf("MaxError %g above configured epsilon", e)
	}
	if p := exactsim.PrecisionAtK(res.Scores, truth, 20, 5); p < 0.95 {
		t.Fatalf("Precision@20 = %g", p)
	}
	if len(top) != 10 {
		t.Fatalf("TopK returned %d entries", len(top))
	}
}

// TestResultDetail: an ExactSim querier's QueryResult.Detail is the
// *exactsim.Result behind the answer. examples/quickstart prints its
// phase times and the benchmark reads its kernel metrics from it.
func TestResultDetail(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(100, 3, 5)
	for _, variant := range exactSimVariants {
		name := variant.algorithm
		res := query(t, name, g, 3, exactsim.WithEpsilon(0.1), exactsim.WithSeed(1))
		det, ok := res.Detail.(*exactsim.Result)
		if !ok {
			t.Fatalf("%s: Detail is %T, want *exactsim.Result", name, res.Detail)
		}
		if det.L <= 0 {
			t.Fatalf("%s: Detail.L = %d", name, det.L)
		}
		if i, ok := scoresBitEqual(det.Scores, res.Scores); !ok {
			t.Fatalf("%s: Detail.Scores differ from the answer's at %d", name, i)
		}
	}
}

func TestDatasetAccess(t *testing.T) {
	if len(exactsim.Datasets()) != 8 {
		t.Fatal("dataset registry incomplete")
	}
	g, err := exactsim.GenerateDataset("GQ", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() == 0 || g.M() == 0 {
		t.Fatal("empty stand-in")
	}
	if _, err := exactsim.GenerateDataset("XX", 1); err == nil {
		t.Fatal("bad key accepted")
	}
}

func TestGraphIO(t *testing.T) {
	g, err := exactsim.ReadEdgeList(strings.NewReader("0 1\n1 2\n2 0\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.bin")
	if err := exactsim.SaveBinary(bin, g); err != nil {
		t.Fatal(err)
	}
	g2, err := exactsim.LoadBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("binary round trip mismatch")
	}
	stats := exactsim.Stats(g2)
	if stats.N != 3 || stats.M != 3 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestLoadEdgeListFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.txt")
	if err := os.WriteFile(path, []byte("# test\n0 1\n1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := exactsim.LoadEdgeList(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("m=%d", g.M())
	}
}

func TestBaselinesThroughFacade(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(120, 3, 3)
	src := exactsim.NodeID(4)
	truth := query(t, "powermethod", g, src, exactsim.WithIterations(40)).Scores

	for name, opts := range map[string][]exactsim.QuerierOption{
		"mc":            {exactsim.WithWalks(20, 400), exactsim.WithSeed(1)},
		"parsim":        {exactsim.WithIterations(30)},
		"linearization": {exactsim.WithEpsilon(0.05), exactsim.WithSeed(2)},
		"prsim":         {exactsim.WithEpsilon(0.05), exactsim.WithSeed(3)},
	} {
		scores := query(t, name, g, src, opts...).Scores
		if len(scores) != g.N() {
			t.Fatalf("%s returned %d scores", name, len(scores))
		}
		e := exactsim.MaxError(scores, truth)
		if math.IsNaN(e) || e > 0.5 {
			t.Fatalf("%s wildly wrong: MaxError %g", name, e)
		}
	}
}

func TestPoolThroughFacade(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(80, 3, 9)
	q := newQuerier(t, "exactsim", g, exactsim.WithEpsilon(1e-3), exactsim.WithSeed(4))
	top, _, err := q.TopK(context.Background(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := exactsim.Pool(g, exactsim.DefaultC, 2, 5,
		[]exactsim.PoolEntry{{Algorithm: "exactsim", TopK: top}}, 2000, 5)
	if res.Precision["exactsim"] < 0.6 {
		t.Fatalf("pooled precision %g for the exact method", res.Precision["exactsim"])
	}
}

func TestTopKOfMatchesQuerierTopK(t *testing.T) {
	ctx := context.Background()
	g := exactsim.GenerateBarabasiAlbert(60, 3, 11)
	q := newQuerier(t, "exactsim", g, exactsim.WithEpsilon(1e-3), exactsim.WithSeed(6))
	res, err := q.SingleSource(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := exactsim.TopKOf(res.Scores, 7, 1)
	b, _, err := q.TopK(ctx, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Idx != b[i].Idx {
			t.Fatalf("TopKOf and Querier.TopK disagree at %d", i)
		}
	}
}
