package cluster_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/cluster"
	"github.com/exactsim/exactsim/httpapi"
)

// Router slots in anywhere a single replica's client did.
var _ exactsim.Querier = (*cluster.Router)(nil)

// gate simulates a replica process dying and coming back on the same
// address: while down, every request — queries and membership probes
// alike — is refused with a bare 503, which the router sees as a
// transport-level failure.
type gate struct {
	down       atomic.Bool
	delay      atomic.Int64 // straggler injection on queries and streams, nanoseconds
	delayEvery atomic.Int64 // stall only every Nth query (≤1 = every query)
	queryN     atomic.Int64
	serial     atomic.Bool // serialize queries: delay models per-replica capacity
	serialMu   sync.Mutex
	// garbleMode corrupts /v1/query responses at the wire level while the
	// replica itself stays healthy: 1 answers 200 with bytes that are not
	// JSON at all, 2 answers 200 with a truncated JSON prefix (a short
	// body). Both must surface client-side as retryable transport errors,
	// never as a parse panic or an accepted answer.
	garbleMode atomic.Int32
	// abortEvery cuts the connection (http.ErrAbortHandler) on every Nth
	// /v1/query — a deterministic server-side connection-reset rate for
	// the resilience benchmarks. ≤0 disables. The abort fires BEFORE the
	// request reaches the service, so a retried query is never
	// double-computed.
	abortEvery atomic.Int64
	abortN     atomic.Int64
	// cutStream makes /v1/query/stream answer 200 with one refinement
	// record (cutRecord) and then cut the connection before the final
	// record: a replica dying mid-ladder.
	cutStream atomic.Bool
	next      http.Handler
}

// cutRecord is the one refinement a cutStream replica writes.
var cutRecord = exactsim.Response{Partial: true, AchievedEpsilon: 0.064}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.down.Load() {
		http.Error(w, "down", http.StatusServiceUnavailable)
		return
	}
	if every := g.abortEvery.Load(); every > 0 && r.URL.Path == "/v1/query" && g.abortN.Add(1)%every == 0 {
		panic(http.ErrAbortHandler)
	}
	if mode := g.garbleMode.Load(); mode != 0 && r.URL.Path == "/v1/query" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		switch mode {
		case 1:
			w.Write([]byte("these bytes are not json\x00\x01"))
		default:
			w.Write([]byte(`{"result":{"scores":[0.25,`)) // cut mid-array
		}
		return
	}
	if g.cutStream.Load() && r.URL.Path == "/v1/query/stream" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(w).Encode(httpapi.StreamRecord{Response: cutRecord})
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}
	if r.URL.Path == "/v1/query" || r.URL.Path == "/v1/query/stream" {
		if g.serial.Load() {
			// One query at a time: the injected delay becomes this
			// replica's service time, so fleet throughput is capacity ×
			// replica count regardless of host core count.
			g.serialMu.Lock()
			defer g.serialMu.Unlock()
		}
		if d := g.delay.Load(); d > 0 {
			if every := g.delayEvery.Load(); every <= 1 || g.queryN.Add(1)%every == 0 {
				time.Sleep(time.Duration(d))
			}
		}
	}
	g.next.ServeHTTP(w, r)
}

// statsSpoof rewrites the /v1/stats queue-depth gauge so shedding can be
// tested without actually saturating a worker pool.
type statsSpoof struct {
	queueDepth atomic.Int64 // negative = passthrough
	svc        *exactsim.Service
	next       http.Handler
}

func (s *statsSpoof) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if qd := s.queueDepth.Load(); qd >= 0 && r.Method == http.MethodGet && r.URL.Path == "/v1/stats" {
		st := s.svc.Stats()
		st.QueueDepth = int(qd)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
		return
	}
	s.next.ServeHTTP(w, r)
}

// member is one loopback fleet replica.
type member struct {
	svc   *exactsim.Service
	api   *httpapi.Server
	gate  *gate
	spoof *statsSpoof
	ts    *httptest.Server
}

func (m *member) url() string { return m.ts.URL }

// startMember boots one replica over g. All members of a test fleet
// share the graph and the querier options, which is what makes their
// answers bit-identical — the property routing, retries and hedging
// rely on.
func startMember(t testing.TB, g *exactsim.Graph, svcOpts exactsim.ServiceOptions) *member {
	t.Helper()
	svc, err := exactsim.NewService(g, svcOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return serveMember(t, svc)
}

func serveMember(t testing.TB, svc *exactsim.Service) *member {
	t.Helper()
	api := httpapi.NewServer(svc, httpapi.ServerOptions{})
	spoof := &statsSpoof{svc: svc, next: api}
	spoof.queueDepth.Store(-1)
	gt := &gate{next: spoof}
	ts := httptest.NewServer(gt)
	t.Cleanup(ts.Close)
	return &member{svc: svc, api: api, gate: gt, spoof: spoof, ts: ts}
}

func startFleet(t testing.TB, g *exactsim.Graph, n int, svcOpts exactsim.ServiceOptions) ([]*member, []string) {
	t.Helper()
	members := make([]*member, n)
	urls := make([]string, n)
	for i := range members {
		members[i] = startMember(t, g, svcOpts)
		urls[i] = members[i].url()
	}
	return members, urls
}

// manualPollOptions disables the background poller so tests drive
// membership transitions deterministically via Router.Poll.
func manualPollOptions() cluster.Options {
	return cluster.Options{
		PollInterval:  -1,
		PollTimeout:   2 * time.Second,
		FailThreshold: 2,
		EpochLagPolls: 2,
	}
}

// TestRouterConformanceBitIdentical is acceptance criterion (a): for
// every registry algorithm, an answer routed through a 3-replica fleet
// is bit-identical to a single-backend reference — same scores, same
// top-k, same epoch. Shared seeds make the replicas interchangeable;
// this test proves the router adds routing, not noise.
func TestRouterConformanceBitIdentical(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(250, 3, 42)
	svcOpts := exactsim.ServiceOptions{
		Workers: 2,
		QuerierOptions: []exactsim.QuerierOption{
			exactsim.WithEpsilon(0.05), exactsim.WithSeed(1),
			exactsim.WithWalks(10, 500), exactsim.WithIterations(25),
		},
	}
	_, urls := startFleet(t, g, 3, svcOpts)

	ref, err := exactsim.NewService(g, svcOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	r, err := cluster.New(urls, manualPollOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.HealthyBackends != 3 {
		t.Fatalf("fleet: %d healthy backends, want 3", st.HealthyBackends)
	}

	ctx := context.Background()
	sources := []exactsim.NodeID{3, 17, 99, 200}
	for _, algorithm := range exactsim.Algorithms() {
		for _, src := range sources {
			req := exactsim.Request{Algorithm: algorithm, Source: src, K: 10}
			got := r.Query(ctx, req)
			want := ref.Query(ctx, req)
			if got.Err != nil || want.Err != nil {
				t.Fatalf("%s/%d: errs %v / %v", algorithm, src, got.Err, want.Err)
			}
			if got.GraphEpoch != want.GraphEpoch {
				t.Fatalf("%s/%d: epoch %d vs %d", algorithm, src, got.GraphEpoch, want.GraphEpoch)
			}
			if len(got.Result.Scores) != len(want.Result.Scores) {
				t.Fatalf("%s/%d: score lengths differ", algorithm, src)
			}
			for j := range got.Result.Scores {
				if got.Result.Scores[j] != want.Result.Scores[j] {
					t.Fatalf("%s/%d: score[%d] = %x, reference %x — fleet answer not bit-identical",
						algorithm, src, j, got.Result.Scores[j], want.Result.Scores[j])
				}
			}
			if len(got.TopK) != len(want.TopK) {
				t.Fatalf("%s/%d: topk lengths differ", algorithm, src)
			}
			for i := range got.TopK {
				if got.TopK[i] != want.TopK[i] {
					t.Fatalf("%s/%d: topk[%d] = %+v vs %+v", algorithm, src, i, got.TopK[i], want.TopK[i])
				}
			}
		}
	}

	// Batch through the fleet: responses align by index and match the
	// reference bit-for-bit too.
	reqs := make([]exactsim.Request, 32)
	for i := range reqs {
		reqs[i] = exactsim.Request{Source: exactsim.NodeID(i * 7 % 250), K: 5}
	}
	gotBatch := r.Batch(ctx, reqs)
	wantBatch := ref.Batch(ctx, reqs)
	for i := range reqs {
		if gotBatch[i].Err != nil || wantBatch[i].Err != nil {
			t.Fatalf("batch[%d]: errs %v / %v", i, gotBatch[i].Err, wantBatch[i].Err)
		}
		for j := range gotBatch[i].Result.Scores {
			if gotBatch[i].Result.Scores[j] != wantBatch[i].Result.Scores[j] {
				t.Fatalf("batch[%d]: score[%d] differs from reference", i, j)
			}
		}
	}
}

// TestRouterBackendDeathAbsorbed is acceptance criterion (b): killing
// one of three backends mid-load loses no accepted query (the retry /
// hedge path absorbs the failures), membership ejects the dead replica
// after FailThreshold polls, and re-admits it when it comes back.
func TestRouterBackendDeathAbsorbed(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(300, 3, 7)
	svcOpts := exactsim.ServiceOptions{
		Workers:        4,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	}
	members, urls := startFleet(t, g, 3, svcOpts)

	opts := manualPollOptions()
	opts.HedgeMinDelay = 2 * time.Millisecond
	r, err := cluster.New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.HealthyBackends != 3 {
		t.Fatalf("precondition: %d healthy backends", st.HealthyBackends)
	}

	ctx := context.Background()
	const (
		loaders    = 8
		perLoader  = 40
		killAfter  = 60 // completed queries before the kill
		totalLoad  = loaders * perLoader
		victimIdx  = 1
		sourceSpan = 300
	)
	var completed atomic.Int64
	var killOnce sync.Once
	errs := make(chan string, totalLoad)
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(l)))
			for i := 0; i < perLoader; i++ {
				src := exactsim.NodeID(rng.Intn(sourceSpan))
				resp := r.Query(ctx, exactsim.Request{Source: src})
				if resp.Err != nil {
					errs <- resp.Err.Error()
				} else if len(resp.Result.Scores) != sourceSpan {
					errs <- "short score vector"
				}
				if completed.Add(1) == killAfter {
					killOnce.Do(func() { members[victimIdx].gate.down.Store(true) })
				}
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatalf("query lost during backend death: %s", msg)
	}

	// Membership: two failed polls eject the victim.
	r.Poll(ctx)
	r.Poll(ctx)
	st := r.Stats()
	if st.HealthyBackends != 2 {
		t.Fatalf("after death: %d healthy backends, want 2", st.HealthyBackends)
	}
	ejected := false
	for _, b := range st.Backends {
		if b.URL == urls[victimIdx] {
			if b.Healthy {
				t.Fatal("victim still marked healthy")
			}
			if b.Ejections < 1 {
				t.Fatal("victim ejection not counted")
			}
			if b.LastPollError == "" {
				t.Fatal("victim poll error not recorded")
			}
			ejected = true
		}
	}
	if !ejected {
		t.Fatal("victim not found in fleet stats")
	}

	// The fleet keeps answering without it.
	for src := 0; src < 30; src++ {
		if resp := r.Query(ctx, exactsim.Request{Source: exactsim.NodeID(src)}); resp.Err != nil {
			t.Fatalf("query failed with victim ejected: %v", resp.Err)
		}
	}
	if members[victimIdx].svc.Stats().Queries == 0 {
		t.Fatal("victim never served — kill happened before any routing to it")
	}

	// Recovery: one clean poll re-admits.
	members[victimIdx].gate.down.Store(false)
	r.Poll(ctx)
	st = r.Stats()
	if st.HealthyBackends != 3 {
		t.Fatalf("after recovery: %d healthy backends, want 3", st.HealthyBackends)
	}
	if st.Retries == 0 {
		t.Fatal("no retries recorded — the kill was never absorbed by rerouting")
	}
}

// TestRouterCloneJoinerWarmStart is acceptance criterion (c): a joining
// replica bootstrapped by CloneFromPeer — through the *router's*
// /v1/snapshot proxy, so the joiner needs no peer address — answers its
// first queries with nonzero diagonal-index hits, and bit-identically
// to the replica it cloned.
func TestRouterCloneJoinerWarmStart(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(400, 3, 5)
	svcOpts := exactsim.ServiceOptions{
		Workers:        2,
		CacheSize:      -1, // force every query to compute → diag index exercised
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.02), exactsim.WithSeed(1)},
	}
	peer := startMember(t, g, svcOpts)

	r, err := cluster.New([]string{peer.url()}, manualPollOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := httptest.NewServer(cluster.NewServer(r, cluster.ServerOptions{}))
	defer rs.Close()

	ctx := context.Background()
	// Warm the peer through the fleet path so its diag index holds the
	// hub chunks every later query shares.
	if wr := r.Warm(ctx, exactsim.WarmRequest{TopDegree: 16}); wr.Err != nil || wr.Warmed == 0 {
		t.Fatalf("warm: %+v", wr)
	}
	r.Poll(ctx) // refresh gauges so the snapshot proxy sees the warmth

	clonePath := filepath.Join(t.TempDir(), "joiner.snap")
	n, epoch, err := cluster.CloneFromPeer(ctx, rs.URL, clonePath)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || epoch != 1 {
		t.Fatalf("clone: %d bytes, epoch %d", n, epoch)
	}

	joinerSvc, err := exactsim.OpenSnapshot(clonePath, svcOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer joinerSvc.Close()
	joiner := serveMember(t, joinerSvc)
	if err := r.Add(joiner.url()); err != nil {
		t.Fatal(err)
	}
	r.Poll(ctx)
	if st := r.Stats(); st.HealthyBackends != 2 {
		t.Fatalf("joiner not admitted: %d healthy", st.HealthyBackends)
	}

	// Route a spread of sources; the ring sends a share to the joiner.
	// Every answer must match the peer bit-for-bit.
	for src := 0; src < 64; src++ {
		resp := r.Query(ctx, exactsim.Request{Source: exactsim.NodeID(src)})
		if resp.Err != nil {
			t.Fatalf("source %d: %v", src, resp.Err)
		}
		want := peer.svc.Query(ctx, exactsim.Request{Source: exactsim.NodeID(src)})
		if want.Err != nil {
			t.Fatalf("reference source %d: %v", src, want.Err)
		}
		for j := range resp.Result.Scores {
			if resp.Result.Scores[j] != want.Result.Scores[j] {
				t.Fatalf("source %d: joiner fleet answer differs from peer at %d", src, j)
			}
		}
	}

	jst := joinerSvc.Stats()
	if jst.Queries == 0 {
		t.Fatal("ring routed nothing to the joiner across 64 sources")
	}
	if jst.DiagHits == 0 {
		t.Fatal("cloned joiner served queries with zero diag-index hits — the clone booted cold")
	}
}

// TestRouterShedsSaturatedFleet: a replica whose polled queue gauge is
// over the shed threshold stops receiving queries; when every healthy
// replica is saturated the router answers unavailable immediately
// instead of queueing.
func TestRouterShedsSaturatedFleet(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(200, 3, 11)
	svcOpts := exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	}
	members, urls := startFleet(t, g, 2, svcOpts)

	opts := manualPollOptions()
	opts.ShedQueueDepth = 100
	r, err := cluster.New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := context.Background()
	// Saturate member 0: its gauge goes over threshold at the next poll.
	members[0].spoof.queueDepth.Store(500)
	r.Poll(ctx)
	for src := 0; src < 40; src++ {
		if resp := r.Query(ctx, exactsim.Request{Source: exactsim.NodeID(src)}); resp.Err != nil {
			t.Fatalf("source %d with one replica shedding: %v", src, resp.Err)
		}
	}
	if q := members[0].svc.Stats().Queries; q != 0 {
		t.Fatalf("saturated replica still served %d queries", q)
	}

	// Saturate both: the fleet is full; requests are rejected early.
	members[1].spoof.queueDepth.Store(500)
	r.Poll(ctx)
	resp := r.Query(ctx, exactsim.Request{Source: 3})
	if resp.Err == nil || resp.Err.Code != exactsim.CodeUnavailable {
		t.Fatalf("saturated fleet answered %+v, want unavailable", resp)
	}
	if st := r.Stats(); st.Shed == 0 {
		t.Fatal("shed counter not incremented")
	}

	// Pressure releases → traffic resumes.
	members[0].spoof.queueDepth.Store(-1)
	members[1].spoof.queueDepth.Store(-1)
	r.Poll(ctx)
	if resp := r.Query(ctx, exactsim.Request{Source: 3}); resp.Err != nil {
		t.Fatalf("after release: %v", resp.Err)
	}
}

// TestRouterHedgesStragglers: once the latency tracker knows the normal
// regime, a query stuck on an induced straggler is raced on the second
// ring candidate and the fast answer wins long before the straggler
// would have returned.
func TestRouterHedgesStragglers(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(300, 3, 7)
	svcOpts := exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	}
	members, urls := startFleet(t, g, 2, svcOpts)

	opts := manualPollOptions()
	opts.HedgeMinDelay = 2 * time.Millisecond
	opts.HedgeQuantile = 0.5
	r, err := cluster.New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := context.Background()
	const probe = exactsim.NodeID(42)
	// Identify the probe source's ring owner while the tracker is still
	// cold — no hedging can fire yet, so exactly one replica serves this
	// query and the straggler we induce below really is the primary.
	if resp := r.Query(ctx, exactsim.Request{Source: probe}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	primary := 0
	if members[1].svc.Stats().Queries > 0 {
		primary = 1
	}

	// Warm the tracker (and both caches) well past its sample gate.
	for i := 0; i < 40; i++ {
		if resp := r.Query(ctx, exactsim.Request{Source: exactsim.NodeID(i % 50)}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}

	const stall = 1500 * time.Millisecond
	members[primary].gate.delay.Store(int64(stall))

	start := time.Now()
	resp := r.Query(ctx, exactsim.Request{Source: probe})
	elapsed := time.Since(start)
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if elapsed >= stall {
		t.Fatalf("hedge did not rescue the straggler: %v elapsed", elapsed)
	}
	st := r.Stats()
	if st.Hedged == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge counters: hedged=%d wins=%d", st.Hedged, st.HedgeWins)
	}
	if st.HedgeDelayNanos == 0 {
		t.Fatal("hedge delay gauge empty despite warm tracker")
	}
}

// TestClusterServerProtocol: a stock httpapi.Client pointed at the
// router's server uses the fleet exactly as it would one replica —
// query, batch, stats, algorithms, health — and the router's stats
// answer decodes as the aggregated superset.
func TestClusterServerProtocol(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(250, 3, 9)
	svcOpts := exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	}
	_, urls := startFleet(t, g, 3, svcOpts)
	r, err := cluster.New(urls, manualPollOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := cluster.NewServer(r, cluster.ServerOptions{})
	rs := httptest.NewServer(srv)
	defer rs.Close()

	c, err := httpapi.NewClient(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	resp, err := c.Query(ctx, exactsim.Request{Source: 7, K: 5})
	if err != nil || resp.Err != nil {
		t.Fatalf("query via router: %v / %v", err, resp.Err)
	}
	if len(resp.TopK) != 5 || resp.GraphEpoch != 1 {
		t.Fatalf("payload: %+v", resp)
	}

	reqs := []exactsim.Request{{Source: 1}, {Source: 2}, {Source: 3}}
	batch, err := c.Batch(ctx, reqs)
	if err != nil || len(batch) != 3 {
		t.Fatalf("batch via router: %v (%d)", err, len(batch))
	}
	for i, br := range batch {
		if br.Err != nil || br.Request.Source != reqs[i].Source {
			t.Fatalf("batch[%d]: %+v", i, br)
		}
	}

	names, def, err := c.Algorithms(ctx)
	if err != nil || def == "" || len(names) == 0 {
		t.Fatalf("algorithms via router: %v %q %v", err, def, names)
	}

	// The aggregated stats decode into the plain ServiceStats shape.
	// Backend gauges are cached from the last membership poll, so
	// refresh them first (the daemon's background poller does this).
	r.Poll(ctx)
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.GraphEpoch != 1 || st.Queries == 0 {
		t.Fatalf("aggregated ServiceStats view: %+v", st)
	}
	// …and the full fleet view carries the per-backend detail.
	res, err := http.Get(rs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var fs cluster.FleetStats
	if err := json.NewDecoder(res.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	if len(fs.Backends) != 3 || fs.HealthyBackends != 3 || fs.RouterQueries == 0 {
		t.Fatalf("fleet view: backends=%d healthy=%d routed=%d",
			len(fs.Backends), fs.HealthyBackends, fs.RouterQueries)
	}

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatal(err)
	}
	// Draining the router flips readiness but not liveness.
	srv.SetDraining(true)
	if err := c.Ready(ctx); err == nil {
		t.Fatal("draining router still ready")
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("draining router not alive: %v", err)
	}
	srv.SetDraining(false)

	// Warm through the router reaches every replica.
	wr, err := c.Warm(ctx, exactsim.WarmRequest{Sources: []exactsim.NodeID{5, 6}})
	if err != nil || wr.Err != nil {
		t.Fatalf("warm via router: %v / %v", err, wr.Err)
	}
	if wr.Warmed != 6 { // 2 sources × 3 replicas
		t.Fatalf("warmed %d, want 6", wr.Warmed)
	}
}

// TestRouterWarmRejectedWholesale: a warm request that every replica
// would reject as a whole is rejected as a whole at the front door too,
// with the 400 invalid_argument one replica answers, not as a 200 that
// counts each replica as failed. An over-bound hub count never leaves
// the router; a negative one reaches both replicas and is refused by
// both, and the router's refusal carries the epoch theirs do.
func TestRouterWarmRejectedWholesale(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(200, 3, 17)
	_, urls := startFleet(t, g, 2, exactsim.ServiceOptions{
		Workers:        1,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	})
	r, err := cluster.New(urls, manualPollOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := httptest.NewServer(cluster.NewServer(r, cluster.ServerOptions{}))
	defer rs.Close()

	warm := func(url, body string) exactsim.WarmResponse {
		t.Helper()
		res, err := http.Post(url+"/v1/warm", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var wr exactsim.WarmResponse
		err = json.NewDecoder(res.Body).Decode(&wr)
		res.Body.Close()
		if err != nil || res.StatusCode != http.StatusBadRequest ||
			wr.Err == nil || wr.Err.Code != exactsim.CodeInvalidArgument {
			t.Fatalf("%s at %s: HTTP %d, %+v (%v)", body, url, res.StatusCode, wr, err)
		}
		return wr
	}
	warm(rs.URL, `{"top_degree":5000}`)
	// Every replica refuses a negative hub count with its real epoch; the
	// router's answer carries it too, never an epoch no generation has.
	const negative = `{"top_degree":-1}`
	replica := warm(urls[0], negative)
	if replica.GraphEpoch != 1 {
		t.Fatalf("%s at a replica: graph_epoch %d, want 1", negative, replica.GraphEpoch)
	}
	if got := warm(rs.URL, negative); got.GraphEpoch != replica.GraphEpoch {
		t.Fatalf("%s through the router: graph_epoch %d, a replica answers %d",
			negative, got.GraphEpoch, replica.GraphEpoch)
	}
}

// TestRouterEpochLagEjects: a replica that misses a fleet-wide graph
// update is ejected after EpochLagPolls polls — stale answers never mix
// into fresh traffic — and re-admitted once it catches up.
func TestRouterEpochLagEjects(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(200, 3, 13)
	svcOpts := exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	}
	members, urls := startFleet(t, g, 3, svcOpts)
	r, err := cluster.New(urls, manualPollOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := context.Background()
	// Roll a graph update across replicas 0 and 1 only.
	g2 := exactsim.GenerateBarabasiAlbert(200, 3, 14)
	for _, i := range []int{0, 1} {
		if _, err := members[i].svc.Update(g2); err != nil {
			t.Fatal(err)
		}
	}
	r.Poll(ctx) // lag 1 — grace
	if st := r.Stats(); st.HealthyBackends != 3 {
		t.Fatalf("grace poll already ejected: %d healthy", st.HealthyBackends)
	}
	r.Poll(ctx) // lag 2 — ejected
	st := r.Stats()
	if st.HealthyBackends != 2 {
		t.Fatalf("laggard not ejected: %d healthy", st.HealthyBackends)
	}
	if st.GraphEpoch != 2 {
		t.Fatalf("fleet epoch %d, want 2", st.GraphEpoch)
	}

	// Queries route only to the epoch-2 replicas.
	for src := 0; src < 20; src++ {
		resp := r.Query(ctx, exactsim.Request{Source: exactsim.NodeID(src)})
		if resp.Err != nil {
			t.Fatalf("source %d: %v", src, resp.Err)
		}
		if resp.GraphEpoch != 2 {
			t.Fatalf("source %d answered on stale epoch %d", src, resp.GraphEpoch)
		}
	}

	// The laggard catches up and rejoins.
	if _, err := members[2].svc.Update(g2); err != nil {
		t.Fatal(err)
	}
	r.Poll(ctx)
	if st := r.Stats(); st.HealthyBackends != 3 {
		t.Fatalf("caught-up replica not re-admitted: %d healthy", st.HealthyBackends)
	}
}

// lateTimerCtx is a context whose deadline has passed on the wall clock
// while its timer has not fired yet: Err stays nil, as it does for the
// milliseconds a loaded scheduler runs a context's timer late.
type lateTimerCtx struct{ context.Context }

func (lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestRouterExpiredOnArrivalLateTimer: the router applies the Service's
// admission rule, which reads the deadline on the wall clock. A query
// whose deadline has passed while its context's timer has not fired is
// answered deadline_exceeded at the router, and no replica sees it.
func TestRouterExpiredOnArrivalLateTimer(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(100, 3, 7)
	members, urls := startFleet(t, g, 2, exactsim.ServiceOptions{
		Workers:        1,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	})
	r, err := cluster.New(urls, manualPollOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	resp := r.Query(lateTimerCtx{context.Background()}, exactsim.Request{Source: 3})
	if resp.Err == nil || resp.Err.Code != exactsim.CodeDeadlineExceeded {
		t.Fatalf("late-timer query: err = %v, want deadline_exceeded", resp.Err)
	}
	for i, m := range members {
		if q := m.svc.Stats().Queries; q != 0 {
			t.Fatalf("replica %d counted %d queries for a query whose budget was gone", i, q)
		}
	}
}

// TestCloneFromPeerFileMode: a cloned snapshot lands with the mode every
// other file the repository writes atomically has, 0644, not the temp
// file's 0600.
func TestCloneFromPeerFileMode(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(100, 3, 7)
	peer := startMember(t, g, exactsim.ServiceOptions{Workers: 1})
	path := filepath.Join(t.TempDir(), "clone.snap")
	if _, _, err := cluster.CloneFromPeer(context.Background(), peer.url(), path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mode := fi.Mode().Perm(); mode != 0o644 {
		t.Fatalf("cloned snapshot mode %v, want 0644", mode)
	}
}
