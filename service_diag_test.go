package exactsim_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
)

// diagTestOpts are the querier knobs shared by every test in this file —
// the service under test and the reference queriers must agree on them for
// bit comparisons to be meaningful.
func diagTestOpts() []exactsim.QuerierOption {
	return []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(7)}
}

// referenceScores computes the expected bit-exact answer for one source:
// a standalone querier over g with a fresh (cold) diagonal index — which,
// by the cold-vs-warm contract, is what any index state must reproduce.
func referenceScores(t *testing.T, g *exactsim.Graph, source exactsim.NodeID) []float64 {
	t.Helper()
	opts := append(diagTestOpts(), exactsim.WithDiagIndex(exactsim.NewDiagSampleIndex(0)))
	q, err := exactsim.NewQuerier("exactsim", g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.SingleSource(context.Background(), source)
	if err != nil {
		t.Fatal(err)
	}
	return res.Scores
}

// TestServiceDiagIndexWarmAndStats exercises the serving-layer surface of
// the diagonal index: Warm populates it, repeat traffic hits it, the
// ServiceStats gauges report it, and the gauge block survives a JSON round
// trip bit-for-bit (the /v1/stats wire contract).
func TestServiceDiagIndexWarmAndStats(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(500, 4, 3)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        2,
		CacheSize:      -1, // isolate the diag index from the result LRU
		QuerierOptions: diagTestOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	wr := svc.Warm(context.Background(), exactsim.WarmRequest{TopDegree: 8})
	if wr.Err != nil {
		t.Fatal(wr.Err)
	}
	if wr.Warmed != 8 || wr.Failed != 0 || wr.GraphEpoch != 1 {
		t.Fatalf("warm: %+v", wr)
	}

	// A fresh source must answer bit-identically to a cold standalone
	// querier, even though it lands on a pre-warmed index.
	want := referenceScores(t, g, 200)
	resp := svc.Query(context.Background(), exactsim.Request{Source: 200})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	for j := range want {
		if math.Float64bits(want[j]) != math.Float64bits(resp.Result.Scores[j]) {
			t.Fatalf("warmed service diverged from cold reference at %d", j)
		}
	}

	st := svc.Stats()
	if !st.DiagIndexEnabled {
		t.Fatal("index disabled by default")
	}
	if st.DiagHits == 0 || st.DiagMisses == 0 || st.DiagChunks == 0 || st.DiagResidentBytes <= 0 {
		t.Fatalf("gauges not populated: %+v", st)
	}
	if st.DiagHitRate <= 0 || st.DiagHitRate > 1 {
		t.Fatalf("hit rate %g out of range", st.DiagHitRate)
	}
	if st.DiagBudgetBytes != 128<<20 {
		t.Fatalf("default budget %d, want 128 MiB", st.DiagBudgetBytes)
	}

	// Wire shape: every diag gauge must survive JSON unchanged.
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back exactsim.ServiceStats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("ServiceStats did not round-trip:\n got %+v\nwant %+v", back, st)
	}

	// Disabled index: gauges read zero and queries still answer.
	off, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers: 1, DiagIndexBytes: -1, QuerierOptions: diagTestOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if resp := off.Query(context.Background(), exactsim.Request{Source: 3}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if st := off.Stats(); st.DiagIndexEnabled || st.DiagChunks != 0 || st.DiagHits != 0 {
		t.Fatalf("disabled index leaked gauges: %+v", st)
	}
}

// TestServiceDiagIndexEvictionBudget runs a service whose index budget is
// far below the working set, so chunks evict continuously — and answers
// must stay bit-identical to the cold reference anyway.
func TestServiceDiagIndexEvictionBudget(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(400, 4, 9)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        2,
		CacheSize:      -1,
		DiagIndexBytes: 2048,
		QuerierOptions: diagTestOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sources := []exactsim.NodeID{0, 7, 42, 0, 7}
	for _, src := range sources {
		want := referenceScores(t, g, src)
		resp := svc.Query(context.Background(), exactsim.Request{Source: src, NoCache: true})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(resp.Result.Scores[j]) {
				t.Fatalf("source %d diverged under eviction at %d", src, j)
			}
		}
	}
	st := svc.Stats()
	if st.DiagEvictions == 0 {
		t.Fatalf("2 KiB budget never evicted: %+v", st)
	}
	if st.DiagResidentBytes > 2048 {
		t.Fatalf("resident %d exceeds the 2 KiB budget", st.DiagResidentBytes)
	}
}

// TestServiceDiagIndexEpochRace is the stale-chunk race proof: queries
// hammer ExactSim while updates flip the graph, and every response must be
// bit-identical to the cold reference for the graph of the epoch it
// claims. A chunk served across an epoch boundary — walks on the wrong
// graph — would flip bits; per-epoch index construction makes that
// structurally impossible, and -race checks the synchronization.
func TestServiceDiagIndexEpochRace(t *testing.T) {
	gOdd := exactsim.GenerateBarabasiAlbert(300, 3, 1)  // epochs 1, 3, 5, ...
	gEven := exactsim.GenerateBarabasiAlbert(400, 3, 2) // epochs 2, 4, 6, ...

	const sources = 4
	wantOdd := make([][]float64, sources)
	wantEven := make([][]float64, sources)
	for s := 0; s < sources; s++ {
		wantOdd[s] = referenceScores(t, gOdd, exactsim.NodeID(s))
		wantEven[s] = referenceScores(t, gEven, exactsim.NodeID(s))
	}

	svc, err := exactsim.NewService(gOdd, exactsim.ServiceOptions{
		Workers:        4,
		QuerierOptions: diagTestOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const updates = 10
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			g := gEven
			if i%2 == 1 {
				g = gOdd
			}
			if _, err := svc.Update(g); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	const queryGoroutines = 4
	for gr := 0; gr < queryGoroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				src := exactsim.NodeID((gr + i) % sources)
				resp := svc.Query(context.Background(), exactsim.Request{Source: src})
				if resp.Err != nil {
					t.Errorf("query: %v", resp.Err)
					return
				}
				want := wantOdd[src]
				if resp.GraphEpoch%2 == 0 {
					want = wantEven[src]
				}
				if len(resp.Result.Scores) != len(want) {
					t.Errorf("epoch %d: %d scores, want %d — mixed epochs",
						resp.GraphEpoch, len(resp.Result.Scores), len(want))
					return
				}
				for j := range want {
					if math.Float64bits(want[j]) != math.Float64bits(resp.Result.Scores[j]) {
						t.Errorf("epoch %d source %d: bit flip at %d — stale diag chunk?",
							resp.GraphEpoch, src, j)
						return
					}
				}
			}
		}(gr)
	}
	wg.Wait()
}

// TestServiceLendsIdleCPUs drives concurrent ExactSim queries, with one
// Update mid-run, through a two-worker Service whose idle worker CPU the
// running query's diagonal phase borrows. Every answer must equal, bit for
// bit, a one-worker querier's with its own index on the answer's epoch;
// cpus_lent shows the lending happened. A one-worker Service answers the
// same way and never lends: its one CPU is held by the query itself.
func TestServiceLendsIdleCPUs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("lending needs GOMAXPROCS ≥ 2")
	}
	graphs := map[uint64]*exactsim.Graph{
		1: exactsim.GenerateBarabasiAlbert(500, 4, 11),
		2: exactsim.GenerateBarabasiAlbert(500, 4, 12),
	}
	sources := []exactsim.NodeID{0, 1, 2, 3, 5, 8, 13, 21}
	want := map[uint64]map[exactsim.NodeID][]float64{}
	for epoch, g := range graphs {
		want[epoch] = map[exactsim.NodeID][]float64{}
		for _, src := range sources {
			want[epoch][src] = referenceScores(t, g, src)
		}
	}
	check := func(t *testing.T, resp exactsim.Response) {
		t.Helper()
		if resp.Err != nil {
			t.Fatalf("source %d: %v", resp.Request.Source, resp.Err)
		}
		ref := want[resp.GraphEpoch][resp.Request.Source]
		if len(ref) != len(resp.Result.Scores) {
			t.Fatalf("epoch %d: %d scores, want %d", resp.GraphEpoch, len(resp.Result.Scores), len(ref))
		}
		for j := range ref {
			if math.Float64bits(ref[j]) != math.Float64bits(resp.Result.Scores[j]) {
				t.Fatalf("epoch %d source %d: bit flip at %d", resp.GraphEpoch, resp.Request.Source, j)
			}
		}
	}

	for _, workers := range []int{2, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			svc, err := exactsim.NewService(graphs[1], exactsim.ServiceOptions{
				Workers:        workers,
				CacheSize:      -1, // every query computes
				QuerierOptions: diagTestOpts(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			query := func(src exactsim.NodeID) exactsim.Response {
				return svc.Query(context.Background(), exactsim.Request{Algorithm: "exactsim", Source: src})
			}

			// A query alone: the other worker's CPU is idle.
			check(t, query(sources[0]))

			const goroutines = 3
			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				resps   []exactsim.Response
				updated sync.Once
			)
			for gr := 0; gr < goroutines; gr++ {
				wg.Add(1)
				go func(gr int) {
					defer wg.Done()
					for i := range sources {
						resp := query(sources[(gr+i)%len(sources)])
						mu.Lock()
						resps = append(resps, resp)
						mu.Unlock()
						if i == 1 {
							updated.Do(func() {
								if _, err := svc.Update(graphs[2]); err != nil {
									t.Errorf("update: %v", err)
								}
							})
						}
					}
				}(gr)
			}
			wg.Wait()
			for _, resp := range resps {
				check(t, resp)
			}

			st := svc.Stats()
			if workers > 1 && st.CPUsLent == 0 {
				t.Fatal("cpus_lent = 0: no query borrowed the idle CPU")
			}
			if workers == 1 && st.CPUsLent != 0 {
				t.Fatalf("cpus_lent = %d on a one-worker Service", st.CPUsLent)
			}
			if st.InFlight != 0 || st.GraphEpoch != 2 {
				t.Fatalf("after the run: in_flight %d, epoch %d", st.InFlight, st.GraphEpoch)
			}
		})
	}
}
