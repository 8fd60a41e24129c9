package exactsim_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
)

func testServiceGraph(t *testing.T) *exactsim.Graph {
	t.Helper()
	return exactsim.GenerateBarabasiAlbert(400, 3, 21)
}

// TestServiceConcurrentQueries hammers one Service from many goroutines
// mixing algorithms, sources and top-k requests; run under -race (CI
// does) this is the data-race proof for shared queriers and the LRU.
func TestServiceConcurrentQueries(t *testing.T) {
	g := testServiceGraph(t)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        4,
		CacheSize:      64,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	algos := []string{"exactsim", "parsim", "mc", "probesim"}
	const goroutines = 8
	const perGoroutine = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perGoroutine)
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				// Only 5 distinct sources per algorithm, so (algorithm,
				// source) keys repeat heavily across goroutines: most
				// requests race a cached line while a few compute.
				req := exactsim.Request{
					Algorithm: algos[gr%len(algos)],
					Source:    exactsim.NodeID(i % 5),
					K:         1 + i%5,
				}
				resp := svc.Query(context.Background(), req)
				if resp.Err != nil {
					errs <- resp.Err
					return
				}
				if len(resp.TopK) != req.K {
					errs <- errors.New("wrong TopK length")
					return
				}
				if len(resp.Result.Scores) != g.N() {
					errs <- errors.New("wrong score vector length")
					return
				}
			}
		}(gr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Queries != goroutines*perGoroutine {
		t.Fatalf("Stats.Queries = %d, want %d", st.Queries, goroutines*perGoroutine)
	}
	if st.Errors != 0 {
		t.Fatalf("Stats.Errors = %d", st.Errors)
	}
	// (goroutine, iteration) pairs repeat (algorithm, source) keys heavily.
	if st.CacheHits == 0 {
		t.Fatal("no cache hits across repeated identical requests")
	}
}

// TestServiceCache: the second identical request is served from the LRU
// with the *same* result object; NoCache forces a recomputation.
func TestServiceCache(t *testing.T) {
	g := testServiceGraph(t)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.05), exactsim.WithSeed(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	req := exactsim.Request{Algorithm: "exactsim", Source: 3}
	first := svc.Query(context.Background(), req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	second := svc.Query(context.Background(), req)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.CacheHit {
		t.Fatal("second identical query missed the cache")
	}
	if &first.Result.Scores[0] != &second.Result.Scores[0] {
		t.Fatal("cache hit did not share the stored result")
	}
	// Top-k requests are served from the cached full vector too.
	topReq := req
	topReq.K = 5
	third := svc.Query(context.Background(), topReq)
	if third.Err != nil || !third.CacheHit || len(third.TopK) != 5 {
		t.Fatalf("top-k from cache: hit=%v err=%v k=%d", third.CacheHit, third.Err, len(third.TopK))
	}
	// Different epsilon is a different cache line.
	epsReq := req
	epsReq.Epsilon = 0.02
	fourth := svc.Query(context.Background(), epsReq)
	if fourth.Err != nil || fourth.CacheHit {
		t.Fatalf("distinct epsilon shared a cache line (hit=%v err=%v)", fourth.CacheHit, fourth.Err)
	}
	// NoCache bypasses lookup.
	fifth := svc.Query(context.Background(), exactsim.Request{Algorithm: "exactsim", Source: 3, NoCache: true})
	if fifth.Err != nil || fifth.CacheHit {
		t.Fatalf("NoCache request hit the cache (hit=%v err=%v)", fifth.CacheHit, fifth.Err)
	}
}

// TestServiceBatch: responses come back in request order, each tagged
// with its own request, and invalid entries fail individually.
func TestServiceBatch(t *testing.T) {
	g := testServiceGraph(t)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        3,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.05), exactsim.WithSeed(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	reqs := []exactsim.Request{
		{Algorithm: "parsim", Source: 0, K: 3},
		{Algorithm: "exactsim", Source: 1},
		{Algorithm: "no-such-algorithm", Source: 2},
		{Algorithm: "mc", Source: exactsim.NodeID(g.N())}, // out of range
		{Source: 4}, // default algorithm
	}
	resps := svc.Batch(context.Background(), reqs)
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(resps), len(reqs))
	}
	for i, resp := range resps {
		if resp.Request.Source != reqs[i].Source {
			t.Fatalf("response %d out of order", i)
		}
	}
	if resps[0].Err != nil || len(resps[0].TopK) != 3 {
		t.Fatalf("batch[0]: err=%v k=%d", resps[0].Err, len(resps[0].TopK))
	}
	if resps[1].Err != nil || resps[2].Err == nil || resps[3].Err == nil {
		t.Fatalf("batch error pattern wrong: %v %v %v", resps[1].Err, resps[2].Err, resps[3].Err)
	}
	if resps[4].Err != nil || resps[4].Result.Algorithm != "exactsim" {
		t.Fatalf("default algorithm not applied: %+v", resps[4])
	}
}

// TestServiceBatchNeverShedsItself: a batch alone on a Service is never
// shed as "queue full". A submitter receives its answer, and frees its
// submission slot, before the worker that sent the answer is back for the
// next job; when Batch bounded its submissions by Workers+QueueDepth, the
// next submissions overfilled the queue in that gap, and about 2% of
// these requests (12% under -race) came back shed.
func TestServiceBatchNeverShedsItself(t *testing.T) {
	g := testServiceGraph(t)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	reqs := make([]exactsim.Request, 32)
	for i := range reqs {
		reqs[i] = exactsim.Request{Algorithm: "exactsim", Source: exactsim.NodeID(i), NoCache: true}
	}
	shed := 0
	for round := 0; round < 150; round++ {
		for _, resp := range svc.Batch(context.Background(), reqs) {
			if resp.Err != nil {
				if shed == 0 {
					t.Errorf("round %d, source %d: %v", round, resp.Request.Source, resp.Err)
				}
				shed++
			}
		}
	}
	if shed > 0 {
		t.Fatalf("%d of %d batched requests failed", shed, 150*len(reqs))
	}
}

// TestServiceDeadline: a service-wide DefaultTimeout cancels a query that
// cannot finish in time, mid-computation, as context.DeadlineExceeded.
func TestServiceDeadline(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(3000, 5, 33)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        1,
		DefaultTimeout: 30 * time.Millisecond,
		// ε=10⁻⁶ makes the diagonal phase run for many seconds uncancelled.
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(1e-6), exactsim.WithSeed(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	start := time.Now()
	resp := svc.Query(context.Background(), exactsim.Request{Source: 7})
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", resp.Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline honored only after %v", elapsed)
	}
}

// TestServiceClose: Close drains and subsequent queries fail with
// ErrServiceClosed; Close is idempotent.
func TestServiceClose(t *testing.T) {
	g := testServiceGraph(t)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp := svc.Query(context.Background(), exactsim.Request{Source: 1}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	svc.Close()
	svc.Close()
	if resp := svc.Query(context.Background(), exactsim.Request{Source: 1}); !errors.Is(resp.Err, exactsim.ErrServiceClosed) {
		t.Fatalf("got %v, want ErrServiceClosed", resp.Err)
	}
}

// TestServiceSingleFlight: concurrent identical requests on a cold key
// elect one leader; everyone else shares its computation. Exactly one
// query computes, so CacheHits is deterministically N−1.
func TestServiceSingleFlight(t *testing.T) {
	g := testServiceGraph(t)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        4,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.05), exactsim.WithSeed(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const n = 8
	var wg sync.WaitGroup
	results := make([]exactsim.Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = svc.Query(context.Background(), exactsim.Request{Source: 9})
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	st := svc.Stats()
	if st.CacheHits != n-1 {
		t.Fatalf("CacheHits = %d, want %d (stampede: duplicate computations)", st.CacheHits, n-1)
	}
}

// TestServiceEpsilonValidation: Epsilon is part of the querier/cache
// keys, so NaN (which never equals itself as a map key) and out-of-range
// values must be rejected up front instead of leaking querier slots.
func TestServiceEpsilonValidation(t *testing.T) {
	g := testServiceGraph(t)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, eps := range []float64{math.NaN(), math.Inf(1), -0.5, 1, 1.5} {
		resp := svc.Query(context.Background(), exactsim.Request{Source: 1, Epsilon: eps})
		if resp.Err == nil {
			t.Fatalf("epsilon %g accepted", eps)
		}
	}
}

// TestServiceUnknownDefault: an unknown default algorithm is rejected at
// construction, not at first query.
func TestServiceUnknownDefault(t *testing.T) {
	if _, err := exactsim.NewService(testServiceGraph(t), exactsim.ServiceOptions{
		DefaultAlgorithm: "nope",
	}); err == nil {
		t.Fatal("unknown default algorithm accepted")
	}
	if _, err := exactsim.NewService(nil, exactsim.ServiceOptions{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}
