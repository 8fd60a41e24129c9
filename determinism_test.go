package exactsim_test

import (
	"context"
	"math"
	"testing"

	exactsim "github.com/exactsim/exactsim"
)

// TestSeedDeterminismAcrossWorkerCounts is the conformance test for the
// documented WithSeed contract: two runs with equal seeds and options
// return identical vectors regardless of WithWorkers. The contract is
// load-bearing for the whole compute spine — the diagonal phase shards fat
// requests into per-chunk RNG streams and merges integer meet counts, and
// the sparse kernels shard over nonzeros with worker-independent
// boundaries; any scheduling leak in either shows up here as a bit flip.
func TestSeedDeterminismAcrossWorkerCounts(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(1200, 4, 7)
	// Node 0 is a BA hub: its R(k) dominates and splits into many chunks,
	// exactly the regime the chunked sampling exists for. 1111 is a leaf.
	sources := []exactsim.NodeID{0, 1111}
	for _, variant := range exactSimVariants {
		t.Run(variant.name, func(t *testing.T) {
			for _, source := range sources {
				var want []float64
				for _, workers := range []int{1, 8} {
					// SampleFactor only scales the walk-pair volume; the
					// determinism property is sample-count independent, so
					// keep the test fast enough for -race CI.
					res := query(t, variant.algorithm, g, source,
						exactsim.WithEpsilon(1e-2),
						exactsim.WithWorkers(workers),
						exactsim.WithSeed(99),
						exactsim.WithSampleFactor(0.05),
					)
					if want == nil {
						want = res.Scores
						continue
					}
					for j := range want {
						if math.Float64bits(want[j]) != math.Float64bits(res.Scores[j]) {
							t.Fatalf("source %d workers=%d: Scores[%d] = %x, want %x (Workers=1)",
								source, workers, j,
								math.Float64bits(res.Scores[j]), math.Float64bits(want[j]))
						}
					}
				}
			}
		})
	}
}

// exactSimVariants names the two ExactSim registry entries the
// determinism tests cover: the Basic ablation and the optimized method.
var exactSimVariants = []struct{ name, algorithm string }{
	{"basic", "exactsim-basic"},
	{"optimized", "exactsim"},
}

// TestSeedDeterminismDiagIndex extends the conformance suite to the shared
// diagonal sample index: with an index attached, a query's answer must be
// bit-identical whether the index is cold or pre-warmed by other queries,
// and across worker counts — chunk streams are node-keyed and merges are
// integer-exact, so a cache hit returns precisely what sampling would.
func TestSeedDeterminismDiagIndex(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(1200, 4, 7)
	build := func(algorithm string, workers int, ix *exactsim.DiagSampleIndex) exactsim.Querier {
		return newQuerier(t, algorithm, g,
			exactsim.WithEpsilon(1e-2),
			exactsim.WithWorkers(workers),
			exactsim.WithSeed(99),
			exactsim.WithSampleFactor(0.05),
			exactsim.WithDiagIndex(ix),
		)
	}
	ctx := context.Background()
	for _, variant := range exactSimVariants {
		t.Run(variant.name, func(t *testing.T) {
			// Cold reference: fresh index, one query, one worker.
			cold, err := build(variant.algorithm, 1, exactsim.NewDiagSampleIndex(0)).SingleSource(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Warm path: a fresh index populated by two *other* sources
			// first (node 0's chunk cells partially overlap theirs), then
			// the same query at a different worker count.
			warmQ := build(variant.algorithm, 8, exactsim.NewDiagSampleIndex(0))
			if _, err := warmQ.SingleSource(ctx, 600); err != nil {
				t.Fatal(err)
			}
			if _, err := warmQ.SingleSource(ctx, 1111); err != nil {
				t.Fatal(err)
			}
			warm, err := warmQ.SingleSource(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			for j := range cold.Scores {
				if math.Float64bits(cold.Scores[j]) != math.Float64bits(warm.Scores[j]) {
					t.Fatalf("cold vs warm index diverged at %d: %x vs %x", j,
						math.Float64bits(cold.Scores[j]), math.Float64bits(warm.Scores[j]))
				}
			}
			// Repeat on the warm index: pure cache hits, same bits.
			again, err := warmQ.SingleSource(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			for j := range cold.Scores {
				if math.Float64bits(cold.Scores[j]) != math.Float64bits(again.Scores[j]) {
					t.Fatalf("warm repeat diverged at %d", j)
				}
			}
		})
	}
}

// TestSeedDeterminismRepeatedQueries pins the other half of the contract:
// the same querier answering the same query twice — with pooled scratch
// reused in between — must return the identical vector (a dirty pooled
// buffer or stale frontier would corrupt the second answer).
func TestSeedDeterminismRepeatedQueries(t *testing.T) {
	ctx := context.Background()
	g := exactsim.GenerateBarabasiAlbert(1500, 4, 11)
	for _, variant := range exactSimVariants {
		q := newQuerier(t, variant.algorithm, g,
			exactsim.WithEpsilon(1e-2), exactsim.WithSeed(5), exactsim.WithSampleFactor(0.05))
		// Interleave a different source so the pooled buffers come back
		// dirty with another query's support before the repeat.
		first, err := q.SingleSource(ctx, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.SingleSource(ctx, 700); err != nil {
			t.Fatal(err)
		}
		second, err := q.SingleSource(ctx, 3)
		if err != nil {
			t.Fatal(err)
		}
		for j := range first.Scores {
			if math.Float64bits(first.Scores[j]) != math.Float64bits(second.Scores[j]) {
				t.Fatalf("%s: repeat query diverged at %d: %g vs %g",
					variant.algorithm, j, first.Scores[j], second.Scores[j])
			}
		}
	}
}
