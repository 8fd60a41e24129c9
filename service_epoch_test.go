package exactsim_test

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	exactsim "github.com/exactsim/exactsim"
)

// TestServiceUpdateInvalidatesCache: Update bumps the epoch, evicts every
// stale cache line, and the next identical request recomputes on the new
// graph — the "post-update queries never serve pre-update cache entries"
// half of the live-serving contract.
func TestServiceUpdateInvalidatesCache(t *testing.T) {
	g1 := exactsim.GenerateBarabasiAlbert(300, 3, 1)
	g2 := exactsim.GenerateBarabasiAlbert(400, 3, 2)
	svc, err := exactsim.NewService(g1, exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	req := exactsim.Request{Source: 3}
	first := svc.Query(context.Background(), req)
	if first.Err != nil || first.GraphEpoch != 1 || len(first.Result.Scores) != g1.N() {
		t.Fatalf("first query: err=%v epoch=%d n=%d", first.Err, first.GraphEpoch, len(first.Result.Scores))
	}
	if hit := svc.Query(context.Background(), req); !hit.CacheHit || hit.GraphEpoch != 1 {
		t.Fatalf("warm query: hit=%v epoch=%d", hit.CacheHit, hit.GraphEpoch)
	}

	ep, err := svc.Update(g2)
	if err != nil || ep != 2 {
		t.Fatalf("Update: epoch=%d err=%v", ep, err)
	}
	st := svc.Stats()
	if st.GraphEpoch != 2 {
		t.Fatalf("Stats.GraphEpoch = %d after update", st.GraphEpoch)
	}
	if st.CachedResults != 0 {
		t.Fatalf("stale cache entries survived the update: %d", st.CachedResults)
	}
	if svc.Graph() != g2 || svc.Epoch() != 2 {
		t.Fatal("Graph()/Epoch() do not reflect the update")
	}

	post := svc.Query(context.Background(), req)
	if post.Err != nil {
		t.Fatal(post.Err)
	}
	if post.CacheHit {
		t.Fatal("post-update query served a pre-update cache entry")
	}
	if post.GraphEpoch != 2 || len(post.Result.Scores) != g2.N() {
		t.Fatalf("post-update query: epoch=%d n=%d, want epoch 2 over n=%d",
			post.GraphEpoch, len(post.Result.Scores), g2.N())
	}
	if again := svc.Query(context.Background(), req); !again.CacheHit || again.GraphEpoch != 2 {
		t.Fatalf("new-epoch cache line not filled: hit=%v epoch=%d", again.CacheHit, again.GraphEpoch)
	}
}

// TestServiceUpdateReleasesAnswers: a replaced graph generation takes
// its caches with it. An answer cached before Update is garbage, within a
// bounded number of collections, once no query holds it.
func TestServiceUpdateReleasesAnswers(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(200, 3, 1)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        1,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithSeed(4), exactsim.WithIterations(10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	req := exactsim.Request{Algorithm: "parsim", Source: 3}
	cached := func() weak.Pointer[exactsim.QueryResult] {
		first := svc.Query(context.Background(), req)
		if first.Err != nil {
			t.Fatal(first.Err)
		}
		if hit := svc.Query(context.Background(), req); !hit.CacheHit || hit.Result != first.Result {
			t.Fatal("the answer was not cached")
		}
		return weak.Make(first.Result)
	}()
	if _, err := svc.Update(exactsim.GenerateBarabasiAlbert(200, 3, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; cached.Value() != nil; i++ {
		if i == 10 {
			t.Fatalf("an answer cached before Update is still reachable after %d collections", i)
		}
		runtime.GC()
	}
}

// TestServiceLiveUpdateRace is the race-detector proof of live update
// safety: queries hammer the service while updates alternate between two
// graphs of different sizes, and every response's score vector must match
// the graph of the epoch it claims — an epoch/snapshot mix-up would show
// up as a wrong vector length (and -race would flag unsynchronized state).
func TestServiceLiveUpdateRace(t *testing.T) {
	gOdd := exactsim.GenerateBarabasiAlbert(300, 3, 1)  // epochs 1, 3, 5, ...
	gEven := exactsim.GenerateBarabasiAlbert(400, 3, 2) // epochs 2, 4, 6, ...
	expectN := func(epoch uint64) int {
		if epoch%2 == 1 {
			return gOdd.N()
		}
		return gEven.N()
	}
	svc, err := exactsim.NewService(gOdd, exactsim.ServiceOptions{
		Workers:        4,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(6), exactsim.WithIterations(15)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const updates = 20
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			g := gEven
			if i%2 == 1 {
				g = gOdd
			}
			ep, err := svc.Update(g)
			if err != nil || ep != uint64(i+2) {
				t.Errorf("update %d: epoch=%d err=%v", i, ep, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const queryGoroutines = 6
	for gr := 0; gr < queryGoroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				resp := svc.Query(context.Background(), exactsim.Request{
					Algorithm: "parsim",
					// Few distinct sources, so cache lines race updates too.
					Source: exactsim.NodeID((gr + i) % 7),
				})
				if resp.Err != nil {
					t.Errorf("query: %v", resp.Err)
					return
				}
				if resp.GraphEpoch < 1 || resp.GraphEpoch > updates+1 {
					t.Errorf("epoch %d out of range", resp.GraphEpoch)
					return
				}
				if got, want := len(resp.Result.Scores), expectN(resp.GraphEpoch); got != want {
					t.Errorf("epoch %d answered with %d scores, want %d — mixed epochs",
						resp.GraphEpoch, got, want)
					return
				}
			}
		}(gr)
	}
	wg.Wait()

	// After the dust settles, the final epoch serves fresh, consistent
	// entries only.
	final := svc.Query(context.Background(), exactsim.Request{Algorithm: "parsim", Source: 0})
	if final.Err != nil || final.GraphEpoch != updates+1 {
		t.Fatalf("final query: err=%v epoch=%d want %d", final.Err, final.GraphEpoch, updates+1)
	}
	if len(final.Result.Scores) != expectN(updates+1) {
		t.Fatal("final epoch serves the wrong graph")
	}
}

// TestServiceUpdateFromDynamic: a service fed DynamicGraph snapshots
// through Update — the one way to change its graph — moves its epoch only
// at the commit, and its next answer is a cache miss computed on the new
// snapshot, with zero index maintenance.
func TestServiceUpdateFromDynamic(t *testing.T) {
	g0 := exactsim.GenerateBarabasiAlbert(200, 3, 9)
	dyn := exactsim.DynamicFrom(g0)
	svc, err := exactsim.NewService(dyn.Snapshot(), exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	before := svc.Query(context.Background(), exactsim.Request{Source: 0})
	if before.Err != nil || before.GraphEpoch != 1 || len(before.Result.Scores) != g0.N() {
		t.Fatalf("pre-update query: err=%v epoch=%d n=%d", before.Err, before.GraphEpoch, len(before.Result.Scores))
	}

	// A mutation batch is invisible until Update commits it...
	id := dyn.AddNode()
	dyn.AddEdge(id, 0)
	dyn.AddEdge(0, id)
	if svc.Epoch() != 1 {
		t.Fatal("epoch moved before Update")
	}
	epoch, err := svc.Update(dyn.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || svc.Epoch() != 2 {
		t.Fatalf("epoch %d (service %d) after Update, want 2", epoch, svc.Epoch())
	}
	after := svc.Query(context.Background(), exactsim.Request{Source: 0})
	if after.Err != nil {
		t.Fatal(after.Err)
	}
	if after.CacheHit || after.GraphEpoch != 2 || len(after.Result.Scores) != g0.N()+1 {
		t.Fatalf("post-update query: hit=%v epoch=%d n=%d, want a miss at epoch 2 over n=%d",
			after.CacheHit, after.GraphEpoch, len(after.Result.Scores), g0.N()+1)
	}
}

// TestServiceQuerierLRUConcurrent: MaxQueriers pressure with single-flight
// builds in flight — concurrent requests across many distinct epsilons
// must all answer correctly while eviction keeps the retained querier map
// bounded.
func TestServiceQuerierLRUConcurrent(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(300, 3, 11)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:          4,
		MaxQueriers:      2,
		DefaultAlgorithm: "parsim",
		QuerierOptions:   []exactsim.QuerierOption{exactsim.WithIterations(20), exactsim.WithSeed(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const goroutines = 8
	const perGoroutine = 6
	var wg sync.WaitGroup
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				// goroutines share some epsilons (single-flight builds race)
				// and introduce fresh ones (eviction under pressure).
				eps := 0.01 * float64(1+(gr*perGoroutine+i)%10)
				resp := svc.Query(context.Background(), exactsim.Request{
					Source: exactsim.NodeID(i), Epsilon: eps,
				})
				if resp.Err != nil {
					t.Errorf("eps=%g: %v", eps, resp.Err)
					return
				}
				if len(resp.Result.Scores) != g.N() {
					t.Errorf("eps=%g: wrong vector length", eps)
					return
				}
			}
		}(gr)
	}
	wg.Wait()

	// One more insert forces a final eviction pass over the now-completed
	// builds; the retained map must then respect the bound.
	if resp := svc.Query(context.Background(), exactsim.Request{Source: 0, Epsilon: 0.5}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if st := svc.Stats(); st.Queriers > 2 {
		t.Fatalf("%d queriers retained, bound is 2", st.Queriers)
	}
}

// TestServiceBatchCancelled: once ctx is dead, Batch stops submitting —
// the remaining requests are answered in place with CodeCanceled instead
// of each paying a goroutine to discover the dead context.
func TestServiceBatchCancelled(t *testing.T) {
	g := testServiceGraph(t)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]exactsim.Request, 50000)
	for i := range reqs {
		reqs[i] = exactsim.Request{Source: exactsim.NodeID(i % g.N())}
	}
	before := runtime.NumGoroutine()
	start := time.Now()
	resps := svc.Batch(ctx, reqs)
	elapsed := time.Since(start)
	after := runtime.NumGoroutine()

	if len(resps) != len(reqs) {
		t.Fatalf("%d responses for %d requests", len(resps), len(reqs))
	}
	for i, r := range resps {
		if r.Err == nil || r.Err.Code != exactsim.CodeCanceled {
			t.Fatalf("response %d: err=%v, want CodeCanceled", i, r.Err)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("response %d does not match context.Canceled", i)
		}
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled batch took %v", elapsed)
	}
	// The old implementation spawned one goroutine per remaining request;
	// the fixed path spawns none for a pre-cancelled context.
	if after > before+10 {
		t.Fatalf("goroutines grew %d → %d on a cancelled batch", before, after)
	}
	if st := svc.Stats(); st.Queries != int64(len(reqs)) || st.Errors != int64(len(reqs)) {
		t.Fatalf("counters diverged: queries=%d errors=%d want %d", st.Queries, st.Errors, len(reqs))
	}
}

// TestServiceErrorCodes: the protocol taxonomy — each rejection carries
// its stable code, and codes keep matching the standard sentinels through
// errors.Is, including after a JSON round trip (the property a network
// transport depends on).
func TestServiceErrorCodes(t *testing.T) {
	g := testServiceGraph(t)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        1,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1)},
	})
	if err != nil {
		t.Fatal(err)
	}

	bg := context.Background()
	if resp := svc.Query(bg, exactsim.Request{Algorithm: "nope", Source: 0}); resp.Err == nil ||
		resp.Err.Code != exactsim.CodeNotFound {
		t.Fatalf("unknown algorithm: %v", resp.Err)
	}
	if resp := svc.Query(bg, exactsim.Request{Source: exactsim.NodeID(g.N())}); resp.Err == nil ||
		resp.Err.Code != exactsim.CodeInvalidArgument {
		t.Fatalf("out-of-range source: %v", resp.Err)
	}
	if resp := svc.Query(bg, exactsim.Request{Source: 0, K: -1}); resp.Err == nil ||
		resp.Err.Code != exactsim.CodeInvalidArgument {
		t.Fatalf("negative k: %v", resp.Err)
	}
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if resp := svc.Query(cancelled, exactsim.Request{Source: 0, NoCache: true}); resp.Err == nil ||
		resp.Err.Code != exactsim.CodeCanceled || !errors.Is(resp.Err, context.Canceled) {
		t.Fatalf("cancelled query: %v", resp.Err)
	}

	ok := svc.Query(bg, exactsim.Request{Source: 1, K: 3})
	if ok.Err != nil {
		t.Fatal(ok.Err)
	}

	svc.Close()
	closed := svc.Query(bg, exactsim.Request{Source: 0})
	if closed.Err == nil || closed.Err.Code != exactsim.CodeClosed ||
		!errors.Is(closed.Err, exactsim.ErrServiceClosed) {
		t.Fatalf("closed service: %v", closed.Err)
	}
	if _, err := svc.Update(g); !errors.Is(err, exactsim.ErrServiceClosed) {
		t.Fatalf("Update on closed service: %v", err)
	}

	// Wire round trip: a success and a failure both survive JSON with
	// sentinel matching intact.
	for _, resp := range []exactsim.Response{ok, closed,
		{Request: exactsim.Request{Source: 2}, GraphEpoch: 3,
			Err: exactsim.Errorf(exactsim.CodeDeadlineExceeded, "too slow")}} {
		data, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		var back exactsim.Response
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back.GraphEpoch != resp.GraphEpoch || back.Request != resp.Request {
			t.Fatalf("round trip mutated the envelope: %+v vs %+v", back, resp)
		}
		if (back.Err == nil) != (resp.Err == nil) {
			t.Fatal("round trip dropped or invented an error")
		}
		if resp.Err != nil && back.Err.Code != resp.Err.Code {
			t.Fatalf("code %q became %q", resp.Err.Code, back.Err.Code)
		}
	}
	var back exactsim.Response
	data, _ := json.Marshal(exactsim.Response{
		Err: exactsim.Errorf(exactsim.CodeDeadlineExceeded, "too slow")})
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(back.Err, context.DeadlineExceeded) {
		t.Fatal("deserialized deadline error no longer matches context.DeadlineExceeded")
	}
	data, _ = json.Marshal(ok)
	var backOK exactsim.Response
	if err := json.Unmarshal(data, &backOK); err != nil {
		t.Fatal(err)
	}
	if len(backOK.Result.Scores) != len(ok.Result.Scores) || len(backOK.TopK) != len(ok.TopK) {
		t.Fatal("round trip lost the result payload")
	}
}
