package exactsim_test

import (
	"context"
	"sync/atomic"
	"testing"

	exactsim "github.com/exactsim/exactsim"
)

// BenchmarkServiceThroughput measures queries/sec through the Service
// front-end under concurrent load on a warmed cache — the serving
// overhead (dispatch, single-flight, LRU, epoch bookkeeping) rather than
// algorithm time, which is what a load balancer provisioning instances
// needs. Paired with BenchmarkHTTPLoopbackQuery in httpapi, the delta is
// the wire cost.
func BenchmarkServiceThroughput(b *testing.B) {
	g := exactsim.GenerateBarabasiAlbert(2000, 4, 1)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		CacheSize:      256,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.05), exactsim.WithSeed(1)},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	// Warm the 64 sources the benchmark rotates over, so the steady state
	// is cache-hit serving.
	for s := 0; s < 64; s++ {
		if resp := svc.Query(ctx, exactsim.Request{Source: exactsim.NodeID(s)}); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			resp := svc.Query(ctx, exactsim.Request{Source: exactsim.NodeID(i & 63), K: 10})
			if resp.Err != nil {
				b.Fatal(resp.Err)
			}
			i++
		}
	})
}

// BenchmarkServiceDistinctSources measures the workload the diagonal
// sample index exists for: every query names a different source, so the
// result LRU never helps (it is disabled outright here) and each answer
// recomputes its forward and backward phases — but D(k,k) depends only on
// the graph, so the Diagonal phase, the dominant cost, is shareable.
//
//   - cold: the index disabled (DiagIndexBytes < 0) — the pre-index
//     serving behavior, every query pays full sampling.
//   - warm: the per-epoch index enabled and pre-populated by one rotation
//     over the source set outside the timer — the steady state of a
//     long-running instance (or one warmed via Warm / POST /v1/warm).
//
// The warm/cold ns-per-op ratio is the serving speedup the index buys.
func BenchmarkServiceDistinctSources(b *testing.B) {
	g := exactsim.GenerateBarabasiAlbert(2000, 4, 1)
	const sources = 256
	run := func(b *testing.B, diagBytes int64, warm bool) {
		svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
			CacheSize:      -1, // distinct sources: the result LRU is out of the picture
			DiagIndexBytes: diagBytes,
			QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.02), exactsim.WithSeed(1)},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		ctx := context.Background()
		// Build the querier (and, for warm, one full source rotation)
		// outside the timer.
		if resp := svc.Query(ctx, exactsim.Request{Source: 0}); resp.Err != nil {
			b.Fatal(resp.Err)
		}
		if warm {
			for s := 0; s < sources; s++ {
				if resp := svc.Query(ctx, exactsim.Request{Source: exactsim.NodeID(s)}); resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
		}
		b.ResetTimer()
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := next.Add(1)
				resp := svc.Query(ctx, exactsim.Request{Source: exactsim.NodeID(i % sources)})
				if resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
		})
	}
	b.Run("cold", func(b *testing.B) { run(b, -1, false) })
	b.Run("warm", func(b *testing.B) { run(b, 0, true) })
}

// BenchmarkServiceThroughputCold measures the uncached path: every query
// recomputes (NoCache), bounded by the worker pool. This is the
// compute-bound ceiling the cache-hit number should be contrasted with.
func BenchmarkServiceThroughputCold(b *testing.B) {
	g := exactsim.GenerateBarabasiAlbert(2000, 4, 1)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	// Build the querier outside the timer.
	if resp := svc.Query(ctx, exactsim.Request{Source: 0}); resp.Err != nil {
		b.Fatal(resp.Err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			resp := svc.Query(ctx, exactsim.Request{
				Source: exactsim.NodeID(i % g.N()), NoCache: true,
			})
			if resp.Err != nil {
				b.Fatal(resp.Err)
			}
			i++
		}
	})
}
