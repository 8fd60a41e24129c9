// Service demonstrates the concurrent query front-end — the first step
// toward the multi-user serving layer in ROADMAP.md: a bounded worker
// pool answering batched SimRank requests over one graph, mixing
// algorithms per request, with per-query deadlines and an LRU result
// cache keyed by (algorithm, source, ε).
//
//	go run ./examples/service
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	exactsim "github.com/exactsim/exactsim"
)

func main() {
	g, err := exactsim.GenerateDataset("WV", 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d — algorithms: %v\n\n", g.N(), g.M(), exactsim.Algorithms())

	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        4,
		CacheSize:      256,
		DefaultTimeout: 10 * time.Second,
		// Service-wide defaults for every querier it constructs.
		QuerierOptions: []exactsim.QuerierOption{
			exactsim.WithEpsilon(1e-3),
			exactsim.WithSeed(7),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	// A batch mixing algorithms and sources: ExactSim for precise answers,
	// ParSim/ProbeSim where approximate-but-fast is fine. The worker pool
	// computes them concurrently; responses come back in request order.
	reqs := []exactsim.Request{
		{Source: 3, K: 5},                      // default algorithm ("auto": the planner picks)
		{Algorithm: "parsim", Source: 3, K: 5}, // index-free approximation
		// Sampling baselines want a per-request ε their O(log n/ε²) cost
		// can afford; distinct ε gets a distinct querier and cache line.
		{Algorithm: "probesim", Source: 17, Epsilon: 0.05, K: 5},
		{Algorithm: "exactsim", Source: 17, K: 5},
		{Algorithm: "exactsim", Source: 17, Epsilon: 1e-2, K: 5},
	}
	start := time.Now()
	resps := svc.Batch(context.Background(), reqs)
	fmt.Printf("batch of %d answered in %v:\n", len(reqs), time.Since(start).Round(time.Millisecond))
	for _, r := range resps {
		if r.Err != nil {
			fmt.Printf("  %-10s src=%-3d ERROR: %v\n", r.Request.Algorithm, r.Request.Source, r.Err)
			continue
		}
		top := r.TopK[0]
		fmt.Printf("  %-10s src=%-3d best peer: node %-5d s=%.5f (query %v)\n",
			r.Result.Algorithm, r.Request.Source, top.Idx, top.Val,
			r.Result.QueryTime.Round(time.Microsecond))
	}

	// Re-running the batch hits the LRU: identical (algorithm, source, ε)
	// keys answer without recomputation.
	start = time.Now()
	resps = svc.Batch(context.Background(), reqs)
	hits := 0
	for _, r := range resps {
		if r.CacheHit {
			hits++
		}
	}
	fmt.Printf("\nsame batch again: %v, %d/%d served from cache\n",
		time.Since(start).Round(time.Microsecond), hits, len(resps))

	st := svc.Stats()
	fmt.Printf("service stats: queries=%d cache-hits=%d errors=%d cached-results=%d\n",
		st.Queries, st.CacheHits, st.Errors, st.CachedResults)

	// Warming pre-computes hub sources: it fills the result cache AND the
	// epoch's shared diagonal sample index, so *fresh* sources — note the
	// sources below were never queried — skip most of their Diagonal-phase
	// sampling, typically the dominant single-source cost.
	wr := svc.Warm(context.Background(), exactsim.WarmRequest{TopDegree: 16})
	if wr.Err != nil {
		log.Fatal(wr.Err)
	}
	start = time.Now()
	for src := exactsim.NodeID(40); src < 48; src++ {
		if r := svc.Query(context.Background(), exactsim.Request{Source: src}); r.Err != nil {
			log.Fatal(r.Err)
		}
	}
	st = svc.Stats()
	fmt.Printf("warmed %d hubs; 8 fresh sources in %v — diag index: %.0f%% hit rate, %d chunks (%d KiB)\n",
		wr.Warmed, time.Since(start).Round(time.Millisecond),
		100*st.DiagHitRate, st.DiagChunks, st.DiagResidentBytes>>10)

	// "auto" — the service default when a request names no algorithm —
	// routes through the adaptive planner: it picks the method from the
	// graph's shape and the requested ε, and the response's Plan block
	// records what ran and why. At defaults the planned answer
	// is bit-identical to asking for the chosen method explicitly.
	r := svc.Query(context.Background(), exactsim.Request{Algorithm: exactsim.AlgorithmAuto, Source: 3, K: 5})
	if r.Err != nil {
		log.Fatal(r.Err)
	}
	fmt.Printf("\nauto planned %s (%s) at ε=%g\n", r.Plan.Algorithm, r.Plan.Reason, r.Plan.EffectiveEpsilon)

	// Anytime serving: QueryStream walks the accuracy-tier ladder
	// coarse→tight, emitting each tier as it completes (Partial, with the
	// ε it achieved); the returned terminal response is bit-identical to
	// the non-streaming answer for the same request.
	final := svc.QueryStream(context.Background(),
		exactsim.Request{Source: 29, Epsilon: 1e-3, K: 5},
		func(ref exactsim.Response) {
			fmt.Printf("  refinement: ε=%g in %v\n",
				ref.AchievedEpsilon, ref.Result.QueryTime.Round(time.Microsecond))
		})
	if final.Err != nil {
		log.Fatal(final.Err)
	}
	fmt.Printf("stream final: %s at ε=%g, best peer node %d\n",
		final.Result.Algorithm, final.Request.Epsilon, final.TopK[0].Idx)
}
