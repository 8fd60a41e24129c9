package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/cluster"
	"github.com/exactsim/exactsim/httpapi"
	"github.com/exactsim/exactsim/internal/algo"
	"github.com/exactsim/exactsim/internal/fault"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/sparse"
)

// chaosSeeds are the fixed schedules CI replays (ci.yml chaos-smoke).
// Any seed must pass; these three are pinned so a regression reproduces
// with `go test -run FleetChaosConformance/seed=0x2f -race ./cluster`.
var chaosSeeds = []uint64{0x2f, 0xc0ffee, 0x5eed}

// chaosFaultConfig is the standard no-torn-writes schedule: every HTTP
// exchange in the fleet — queries, membership probes, client retries —
// rolls these dice. Roughly one exchange in eight is damaged.
func chaosFaultConfig(seed uint64) fault.Config {
	return fault.Config{
		Seed:          seed,
		LatencyProb:   0.05,
		Latency:       2 * time.Millisecond,
		ResetProb:     0.05,
		Error5xxProb:  0.03,
		ShortBodyProb: 0.03,
		CorruptProb:   0.02,
	}
}

// faultHTTPClient builds the chaos transport: the injector wraps a
// pooled transport clone so the fleet still reuses connections (faults
// come from the schedule, not from port exhaustion).
func faultHTTPClient(inj *fault.Injector) *http.Client {
	base := http.DefaultTransport.(*http.Transport).Clone()
	return &http.Client{Transport: inj.Transport(base)}
}

// TestFleetChaosConformance is the tentpole acceptance test: a
// 3-replica loopback fleet serves concurrent load while a seeded fault
// schedule resets connections, injects 5xx, cuts bodies short and flips
// response bytes on every path (queries AND membership probes). The
// oracle is bit-determinism — every ACCEPTED answer must equal the
// fault-free reference exactly; a single flipped bit that survives into
// an accepted response fails the suite. Availability must stay high
// (the retry/breaker stack absorbs the damage) and no replica may
// record a panic: this schedule contains no panic faults, so any
// recovery would mean fault handling itself is broken.
func TestFleetChaosConformance(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(250, 3, 42)
	svcOpts := exactsim.ServiceOptions{
		Workers: 2,
		QuerierOptions: []exactsim.QuerierOption{
			exactsim.WithEpsilon(0.1), exactsim.WithSeed(1),
		},
	}
	ref, err := exactsim.NewService(g, svcOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			members, urls := startFleet(t, g, 3, svcOpts)
			inj := fault.New(chaosFaultConfig(seed))
			opts := manualPollOptions()
			opts.HTTPClient = faultHTTPClient(inj)
			r, err := cluster.New(urls, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			// The bootstrap poll already rode the faulty transport; keep
			// polling until every replica is admitted so the load phase
			// starts from full strength.
			ctx := context.Background()
			for i := 0; i < 50 && r.Stats().HealthyBackends < 3; i++ {
				r.Poll(ctx)
			}
			if st := r.Stats(); st.HealthyBackends == 0 {
				t.Fatal("no replica admitted through the faulty transport")
			}

			const (
				loaders   = 4
				perLoader = 40
				span      = 250
			)
			var accepted, rejected, mismatches atomic.Int64
			var wg sync.WaitGroup
			for l := 0; l < loaders; l++ {
				wg.Add(1)
				go func(l int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(seed) + int64(l)))
					for i := 0; i < perLoader; i++ {
						src := exactsim.NodeID(rng.Intn(span))
						resp := r.Query(ctx, exactsim.Request{Source: src})
						if resp.Err != nil {
							rejected.Add(1)
							continue
						}
						accepted.Add(1)
						want := ref.Query(ctx, exactsim.Request{Source: src})
						if want.Err != nil {
							t.Errorf("reference failed for source %d: %v", src, want.Err)
							return
						}
						if resp.GraphEpoch != want.GraphEpoch {
							mismatches.Add(1)
							t.Errorf("source %d: epoch %d vs %d", src, resp.GraphEpoch, want.GraphEpoch)
							return
						}
						if i, ok := bitEqual(resp.Result.Scores, want.Result.Scores); !ok {
							mismatches.Add(1)
							t.Errorf("source %d: ACCEPTED answer differs from reference at index %d — corruption passed the checks", src, i)
							return
						}
					}
				}(l)
			}
			// Membership churns mid-load, through the same faulty wire.
			for i := 0; i < 3; i++ {
				time.Sleep(20 * time.Millisecond)
				r.Poll(ctx)
			}
			wg.Wait()

			total := accepted.Load() + rejected.Load()
			if mismatches.Load() != 0 {
				t.Fatalf("%d accepted answers were not bit-identical to the reference", mismatches.Load())
			}
			if total != loaders*perLoader {
				t.Fatalf("load accounting: %d of %d", total, loaders*perLoader)
			}
			if float64(accepted.Load()) < 0.9*float64(total) {
				t.Fatalf("availability collapsed: %d/%d accepted under the fault schedule", accepted.Load(), total)
			}
			counts := inj.Counts()
			if counts.Draws == 0 || counts.Resets+counts.Errors5xx+counts.ShortBodies+counts.Corruptions == 0 {
				t.Fatalf("fault schedule fired nothing (%+v) — the run proved nothing", counts)
			}
			var panics int64
			for _, m := range members {
				panics += m.svc.Stats().PanicsRecovered
			}
			if panics != 0 {
				t.Fatalf("%d panics recovered under a no-panic schedule — a fault reached code that cannot handle it", panics)
			}
			t.Logf("seed %#x: accepted %d/%d, faults %s, retries=%d breaker_skips=%d",
				seed, accepted.Load(), total, counts.String(), r.Stats().Retries, r.Stats().BreakerSkips)
		})
	}
}

func bitEqual(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// --- panic containment through the fleet -----------------------------

// The cluster test binary registers its own copy of the test-panic
// algorithm (test binaries don't share registries). Disarmed it answers
// a pure function of (source, n) — every replica agrees bit for bit —
// and armed it panics inside the replica's worker.
var (
	panicNextQueries atomic.Int64
	registerPanicAlg sync.Once
)

const panicAlgName = "test-panic"

type panicQuerier struct{ g *graph.Graph }

func (q *panicQuerier) Name() string        { return panicAlgName }
func (q *panicQuerier) Graph() *graph.Graph { return q.g }

func (q *panicQuerier) SingleSource(ctx context.Context, source graph.NodeID) (*algo.Result, error) {
	if panicNextQueries.Load() > 0 && panicNextQueries.Add(-1) >= 0 {
		panic("test-panic: injected query panic")
	}
	start := time.Now()
	scores := make([]float64, q.g.N())
	for i := range scores {
		d := int(source) - i
		if d < 0 {
			d = -d
		}
		scores[i] = 1 / float64(1+d)
	}
	scores[source] = 1
	return &algo.Result{Algorithm: panicAlgName, Scores: scores, QueryTime: time.Since(start)}, nil
}

func (q *panicQuerier) TopK(ctx context.Context, source graph.NodeID, k int) ([]sparse.Entry, *algo.Result, error) {
	res, err := q.SingleSource(ctx, source)
	if err != nil {
		return nil, nil, err
	}
	return sparse.TopK(res.Scores, k, source), res, nil
}

func registerPanicAlgorithm() {
	registerPanicAlg.Do(func() {
		algo.Register(panicAlgName, func(ctx context.Context, g *graph.Graph, cfg algo.Config) (algo.Querier, error) {
			return &panicQuerier{g: g}, nil
		})
	})
}

// TestFleetPanicContainment: a replica-side panic costs the client
// nothing — the replica contains it (CodeInternal + panics_recovered),
// the router sees a retryable code and reroutes, and the caller gets
// the bit-identical answer from the next replica. The aggregated fleet
// stats surface the recovery so chaos runs can assert on it.
func TestFleetPanicContainment(t *testing.T) {
	registerPanicAlgorithm()
	g := exactsim.GenerateBarabasiAlbert(150, 3, 31)
	svcOpts := exactsim.ServiceOptions{Workers: 2}
	members, urls := startFleet(t, g, 2, svcOpts)

	// No client retries and no hedging: the router's replica-level retry
	// must be the thing that absorbs the panic.
	opts := manualPollOptions()
	opts.DisableHedging = true
	opts.ClientRetries = -1
	r, err := cluster.New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := context.Background()
	req := exactsim.Request{Algorithm: panicAlgName, Source: 5, NoCache: true}
	base := r.Query(ctx, req)
	if base.Err != nil {
		t.Fatal(base.Err)
	}

	panicNextQueries.Store(1)
	resp := r.Query(ctx, req)
	if resp.Err != nil {
		t.Fatalf("panic was not absorbed by rerouting: %v", resp.Err)
	}
	if i, ok := bitEqual(resp.Result.Scores, base.Result.Scores); !ok {
		t.Fatalf("post-panic answer differs at %d", i)
	}

	var recovered int64
	for _, m := range members {
		recovered += m.svc.Stats().PanicsRecovered
	}
	if recovered < 1 {
		t.Fatal("no replica recorded the recovered panic")
	}
	if st := r.Stats(); st.Retries < 1 {
		t.Fatalf("router retries = %d; the panic answer came from nowhere", st.Retries)
	}

	// The fold-up: a poll refreshes backend stats and the fleet view
	// carries the recovery.
	r.Poll(ctx)
	if fs := r.Stats(); fs.PanicsRecovered < 1 {
		t.Fatalf("aggregated panics_recovered = %d", fs.PanicsRecovered)
	}
	if !strings.Contains(r.Stats().LastPanic, "panic") {
		t.Fatalf("aggregated last_panic = %q", r.Stats().LastPanic)
	}

	// Replicas survived; the whole fleet still answers.
	for src := 0; src < 20; src++ {
		if resp := r.Query(ctx, exactsim.Request{Source: exactsim.NodeID(src)}); resp.Err != nil {
			t.Fatalf("post-panic fleet query %d: %v", src, resp.Err)
		}
	}
}

// TestRouterMalformedBackendResponse: a backend whose
// query responses are wire-garbage — non-JSON bytes or a truncated JSON
// prefix, both with status 200 — must read as a retryable transport
// error. The router reroutes to the intact replica and the caller never
// sees a failure, whether it calls the router in process or through the
// front door, which relays answer bytes; pointing a raw no-retry client
// at the garbling backend yields an error, not a parse panic or a
// half-decoded answer.
func TestRouterMalformedBackendResponse(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(200, 3, 37)
	svcOpts := exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	}
	members, urls := startFleet(t, g, 2, svcOpts)

	opts := manualPollOptions()
	opts.DisableHedging = true
	opts.ClientRetries = -1
	opts.BreakerThreshold = -1 // isolate the retry path from breaker masking
	r, err := cluster.New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()

	for mode := int32(1); mode <= 2; mode++ {
		members[0].gate.garbleMode.Store(mode)
		for src := 0; src < 40; src++ {
			resp := r.Query(ctx, exactsim.Request{Source: exactsim.NodeID(src)})
			if resp.Err != nil {
				t.Fatalf("mode %d source %d: garbled backend cost an answer: %v", mode, src, resp.Err)
			}
		}
	}
	if st := r.Stats(); st.Retries == 0 {
		t.Fatal("no retries recorded — the garbling backend was never even tried")
	}

	// The front door relays a replica's answer bytes without decoding
	// them. A client that never retries still gets every source, bit for
	// bit, while one replica garbles its 200s: the router's scan caught
	// each garbled body, retried on the sibling and relayed nothing of it.
	front := httptest.NewServer(cluster.NewServer(r, cluster.ServerOptions{}))
	defer front.Close()
	fc, err := httpapi.NewClient(front.URL, httpapi.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	retries := r.Stats().Retries
	for mode := int32(1); mode <= 2; mode++ {
		members[0].gate.garbleMode.Store(mode)
		for src := 0; src < 40; src++ {
			req := exactsim.Request{Source: exactsim.NodeID(src)}
			resp, err := fc.Query(ctx, req)
			if err != nil || resp.Err != nil {
				t.Fatalf("front door, mode %d source %d: garbled backend cost an answer: %v / %v",
					mode, src, err, resp.Err)
			}
			want := members[1].svc.Query(ctx, req)
			if at, ok := bitEqual(resp.Result.Scores, want.Result.Scores); want.Err != nil || !ok {
				t.Fatalf("front door, mode %d source %d: answer differs from the intact replica's (index %d)",
					mode, src, at)
			}
		}
	}
	members[0].gate.garbleMode.Store(0)
	if r.Stats().Retries == retries {
		t.Fatal("no front-door retries recorded — the garbling backend was never even tried")
	}

	// A relayed answer is the serving replica's body, byte for byte. Each
	// replica answers the request once to cache it, then again for the
	// body to compare; replicas differ only in the cached query_time_ns.
	post := func(url string) []byte {
		t.Helper()
		res, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(`{"source":7,"k":3}`))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil || res.StatusCode != http.StatusOK {
			t.Fatalf("POST %s/v1/query: %v, %s: %s", url, err, res.Status, body)
		}
		return body
	}
	var direct [][]byte
	for _, m := range members {
		post(m.url())
		direct = append(direct, post(m.url()))
	}
	relayed := post(front.URL)
	if !bytes.Equal(relayed, direct[0]) && !bytes.Equal(relayed, direct[1]) {
		t.Fatalf("front-door body is neither replica's body:\n front: %.200s\n   [0]: %.200s\n   [1]: %.200s",
			relayed, direct[0], direct[1])
	}
	if !bytes.Contains(relayed, []byte(`"cache_hit":true`)) {
		t.Fatalf("front-door answer was not the cached one: %.200s", relayed)
	}

	// Raw client, no retries: the garble surfaces as a plain error.
	c, err := httpapi.NewClient(urls[0], httpapi.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	members[0].gate.garbleMode.Store(1)
	if _, err := c.Query(ctx, exactsim.Request{Source: 3}); err == nil {
		t.Fatal("non-JSON 200 decoded as a success")
	}
	members[0].gate.garbleMode.Store(2)
	if _, err := c.Query(ctx, exactsim.Request{Source: 3}); err == nil {
		t.Fatal("truncated JSON 200 decoded as a success")
	}
	members[0].gate.garbleMode.Store(0)
}

// TestRouterFailOpenWhenAllEjected pins panic routing: when every
// backend is poll-ejected, the health verdict is suspect — the prober
// rides the same network as the queries, and chaos that blinds it must
// not blind the data path. The router walks the ring anyway (counted in
// FailOpenPicks) and the answer is bit-identical to the healthy
// baseline; when the backends really are down, fail-open still fails —
// it trades a guaranteed error for an attempt, never for a wrong bit.
func TestRouterFailOpenWhenAllEjected(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(200, 3, 7)
	members, urls := startFleet(t, g, 2, exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	})
	opts := manualPollOptions()
	opts.DisableHedging = true
	opts.ClientRetries = -1
	r, err := cluster.New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()

	ref := r.Query(ctx, exactsim.Request{Source: 3})
	if ref.Err != nil {
		t.Fatalf("baseline: %v", ref.Err)
	}

	// Blind the prober: two failed polls eject both replicas...
	for _, m := range members {
		m.gate.down.Store(true)
	}
	r.Poll(ctx)
	r.Poll(ctx)
	if st := r.Stats(); st.HealthyBackends != 0 {
		t.Fatalf("want 0 healthy after failed polls, got %d", st.HealthyBackends)
	}
	// ...but the replicas themselves are fine. Fail-open must serve.
	for _, m := range members {
		m.gate.down.Store(false)
	}
	resp := r.Query(ctx, exactsim.Request{Source: 3})
	if resp.Err != nil {
		t.Fatalf("fail-open query with 0 healthy backends: %v", resp.Err)
	}
	if at, ok := bitEqual(resp.Result.Scores, ref.Result.Scores); !ok {
		t.Fatalf("fail-open answer not bit-identical to healthy baseline (index %d)", at)
	}
	st := r.Stats()
	if st.FailOpenPicks == 0 {
		t.Fatal("no fail-open pick recorded")
	}
	if st.HealthyBackends != 0 {
		t.Fatalf("membership must stay ejected until a clean poll, got %d healthy", st.HealthyBackends)
	}

	// Truly-down backends: fail-open attempts and fails — no silent hang,
	// no fabricated answer.
	for _, m := range members {
		m.gate.down.Store(true)
	}
	if resp := r.Query(ctx, exactsim.Request{Source: 5}); resp.Err == nil {
		t.Fatal("fail-open against truly-down backends answered")
	}

	// One clean poll re-admits and fail-open steps aside.
	for _, m := range members {
		m.gate.down.Store(false)
	}
	r.Poll(ctx)
	if st := r.Stats(); st.HealthyBackends != 2 {
		t.Fatalf("want 2 healthy after clean poll, got %d", st.HealthyBackends)
	}
	before := r.Stats().FailOpenPicks
	if resp := r.Query(ctx, exactsim.Request{Source: 3}); resp.Err != nil {
		t.Fatalf("post-recovery query: %v", resp.Err)
	}
	if after := r.Stats().FailOpenPicks; after != before {
		t.Fatalf("healthy fleet still picking fail-open (%d -> %d)", before, after)
	}
}
