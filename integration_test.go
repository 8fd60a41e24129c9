package exactsim_test

import (
	"math"
	"testing"

	exactsim "github.com/exactsim/exactsim"
)

// TestIntegrationFullStudy replays the paper's study end-to-end on one
// medium graph: power-method ground truth, every method queried, the
// paper's qualitative findings asserted. This is the repository's
// spot-check that all the pieces cohere through the public API.
func TestIntegrationFullStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	g, err := exactsim.GenerateDataset("GQ", 0.08) // ~420 nodes
	if err != nil {
		t.Fatal(err)
	}
	src := exactsim.NodeID(11)
	truthRow := query(t, "powermethod", g, src).Scores

	// ExactSim at eps=1e-4 must beat every approximate method on MaxError.
	res := query(t, "exactsim", g, src, exactsim.WithEpsilon(1e-4), exactsim.WithSeed(2))
	exactErr := exactsim.MaxError(res.Scores, truthRow)
	if exactErr > 1e-4 {
		t.Fatalf("ExactSim error %g above configured eps", exactErr)
	}

	methods := map[string][]float64{
		"mc": query(t, "mc", g, src,
			exactsim.WithWalks(15, 300), exactsim.WithSeed(3)).Scores,
		"parsim": query(t, "parsim", g, src,
			exactsim.WithIterations(40)).Scores,
		"linearization": query(t, "linearization", g, src,
			exactsim.WithEpsilon(0.02), exactsim.WithSeed(4)).Scores,
		"prsim": query(t, "prsim", g, src,
			exactsim.WithEpsilon(0.02), exactsim.WithSeed(5)).Scores,
		"probesim": query(t, "probesim", g, src,
			exactsim.WithEpsilon(0.02), exactsim.WithSeed(6)).Scores,
	}
	for name, scores := range methods {
		err := exactsim.MaxError(scores, truthRow)
		if err <= exactErr {
			t.Fatalf("%s error %g should exceed ExactSim's %g", name, err, exactErr)
		}
		if err > 0.2 {
			t.Fatalf("%s error %g implausibly large", name, err)
		}
		// the ranking metric must be self-consistent
		if p := exactsim.PrecisionAtK(scores, truthRow, 20, src); p < 0 || p > 1 {
			t.Fatalf("%s: precision %g out of range", name, p)
		}
	}

	// ParSim bias floor: error identical for L=40 and L=400.
	ps40 := methods["parsim"]
	ps400 := query(t, "parsim", g, src, exactsim.WithIterations(400)).Scores
	e40 := exactsim.MaxError(ps40, truthRow)
	e400 := exactsim.MaxError(ps400, truthRow)
	if math.Abs(e40-e400) > 1e-6 {
		t.Fatalf("ParSim floor not flat: %g vs %g", e40, e400)
	}
	if e400 < 1e-4 {
		t.Fatalf("ParSim bias floor %g suspiciously low", e400)
	}

	// The exact result's top 50 should be the true top 50.
	if p := exactsim.PrecisionAtK(res.Scores, truthRow, 50, src); p < 0.95 {
		t.Fatalf("ExactSim precision@50 = %g", p)
	}

	// Pooling must rank ExactSim at the top among all participants.
	var entries []exactsim.PoolEntry
	entries = append(entries, exactsim.PoolEntry{
		Algorithm: "exactsim", TopK: exactsim.TopKOf(res.Scores, 25, src)})
	for name, scores := range methods {
		entries = append(entries, exactsim.PoolEntry{
			Algorithm: name, TopK: exactsim.TopKOf(scores, 25, src)})
	}
	pool := exactsim.Pool(g, 0.6, src, 25, entries, 50000, 9)
	for name, prec := range pool.Precision {
		if prec > pool.Precision["exactsim"]+0.05 {
			t.Fatalf("pooling ranked %s (%g) above exactsim (%g)",
				name, prec, pool.Precision["exactsim"])
		}
	}

	// Dynamic path: removing the source's edges must change its result.
	dyn := exactsim.DynamicFrom(g)
	removed := 0
	for _, v := range g.OutNeighbors(src) {
		if dyn.RemoveUndirected(src, v) {
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("source had no edges to remove")
	}
	res2 := query(t, "exactsim", dyn.Snapshot(), src, exactsim.WithEpsilon(1e-3), exactsim.WithSeed(2))
	for j, v := range res2.Scores {
		if exactsim.NodeID(j) != src && v > 1e-3 {
			t.Fatalf("isolated source still similar to %d (%g)", j, v)
		}
	}
}
