// Benchmarks: one testing.B regenerator per table and figure of the
// paper's evaluation (DESIGN.md §3). Each runs the same harness code path
// as cmd/experiments, at smoke scale so `go test -bench=.` terminates in
// minutes; the recorded reproduction numbers in EXPERIMENTS.md come from
// cmd/experiments at larger scale.
package exactsim_test

import (
	"context"
	"io"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/internal/harness"
)

// benchConfig is the smoke-scale harness setup shared by the figure
// benchmarks.
func benchConfig() harness.Config {
	cfg := harness.Quick()
	cfg.Scale = 0.01
	cfg.Queries = 1
	cfg.K = 10
	cfg.TimeBudget = 2 * time.Second
	cfg.EpsGrid = []float64{1e-1, 1e-2}
	cfg.GroundTruthEps = 1e-3
	cfg.SampleFactor = 0.5
	return cfg
}

func runFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchConfig())
		rep, err := r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Preformatted == "" && len(rep.Points) == 0 && len(rep.Rows) == 0 {
			b.Fatalf("%s produced no output", id)
		}
		if err := rep.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Datasets regenerates the dataset inventory (paper Table 2).
func BenchmarkTable2Datasets(b *testing.B) { runFigure(b, "table2") }

// BenchmarkFigure1MaxErrorVsQueryTimeSmall regenerates paper Figure 1.
func BenchmarkFigure1MaxErrorVsQueryTimeSmall(b *testing.B) { runFigure(b, "fig1") }

// BenchmarkFigure2PrecisionVsQueryTimeSmall regenerates paper Figure 2.
func BenchmarkFigure2PrecisionVsQueryTimeSmall(b *testing.B) { runFigure(b, "fig2") }

// BenchmarkFigure3PreprocessingSmall regenerates paper Figure 3.
func BenchmarkFigure3PreprocessingSmall(b *testing.B) { runFigure(b, "fig3") }

// BenchmarkFigure4IndexSizeSmall regenerates paper Figure 4.
func BenchmarkFigure4IndexSizeSmall(b *testing.B) { runFigure(b, "fig4") }

// BenchmarkFigure5MaxErrorVsQueryTimeLarge regenerates paper Figure 5.
func BenchmarkFigure5MaxErrorVsQueryTimeLarge(b *testing.B) { runFigure(b, "fig5") }

// BenchmarkFigure6PrecisionVsQueryTimeLarge regenerates paper Figure 6.
func BenchmarkFigure6PrecisionVsQueryTimeLarge(b *testing.B) { runFigure(b, "fig6") }

// BenchmarkFigure7PreprocessingLarge regenerates paper Figure 7.
func BenchmarkFigure7PreprocessingLarge(b *testing.B) { runFigure(b, "fig7") }

// BenchmarkFigure8IndexSizeLarge regenerates paper Figure 8.
func BenchmarkFigure8IndexSizeLarge(b *testing.B) { runFigure(b, "fig8") }

// BenchmarkFigure9Ablation regenerates paper Figure 9 (basic vs optimized).
func BenchmarkFigure9Ablation(b *testing.B) { runFigure(b, "fig9") }

// BenchmarkTable3MemoryOverhead regenerates paper Table 3.
func BenchmarkTable3MemoryOverhead(b *testing.B) { runFigure(b, "table3") }

// BenchmarkAblationComponents regenerates the DESIGN.md §3 extra ablation
// (π²-sampling and Algorithm-3 isolated).
func BenchmarkAblationComponents(b *testing.B) { runFigure(b, "ablation-extra") }

// Micro-benchmarks of the public query path at representative settings.

func benchQuery(b *testing.B, algorithm string, eps float64) {
	b.Helper()
	ctx := context.Background()
	g := exactsim.GenerateBarabasiAlbert(5000, 4, 1)
	q := newQuerier(b, algorithm, g, exactsim.WithEpsilon(eps), exactsim.WithSeed(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.SingleSource(ctx, exactsim.NodeID(i%g.N())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleSourceOptimizedEps1e2 is the optimized engine at ε=1e-2.
func BenchmarkSingleSourceOptimizedEps1e2(b *testing.B) { benchQuery(b, "exactsim", 1e-2) }

// BenchmarkSingleSourceOptimizedEps1e3 is the optimized engine at ε=1e-3.
func BenchmarkSingleSourceOptimizedEps1e3(b *testing.B) { benchQuery(b, "exactsim", 1e-3) }

// BenchmarkSingleSourceBasicEps1e2 is the basic (ablation) engine at ε=1e-2.
func BenchmarkSingleSourceBasicEps1e2(b *testing.B) { benchQuery(b, "exactsim-basic", 1e-2) }

// BenchmarkTopK500 measures top-k extraction on a full score vector.
func BenchmarkTopK500(b *testing.B) {
	g := exactsim.GenerateBarabasiAlbert(50000, 4, 1)
	res := query(b, "exactsim", g, 0, exactsim.WithEpsilon(1e-1), exactsim.WithSeed(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exactsim.TopKOf(res.Scores, 500, 0)
	}
}
