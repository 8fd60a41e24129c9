package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/cluster"
	"github.com/exactsim/exactsim/httpapi"
)

// hot-router-db: repeated keys through the fleet's front door. Every
// timed request is a cache hit, so the kernel does nothing; wire
// encoding of the 100k-entry score vector, the Service hit path and the
// router hop are all there is.
const (
	hotRate     = 5.0 // requests per second, open loop
	hotPool     = 8   // distinct hot sources, each warmed on every replica
	hotZipf     = 1.1
	hotReplicas = 2
	hotK        = 10
	// hotLimit is the latency a hit must beat to count toward goodput.
	hotLimit = 300 * time.Millisecond
)

var hotRouterDB = workload{
	name:  "hot-router-db",
	setup: setupHot,
}

type hotFixture struct {
	g       *exactsim.Graph
	svcs    []*exactsim.Service
	servers []*httptest.Server // replicas
	front   *httptest.Server
	router  *cluster.Router
	client  *httpapi.Client
	conns   []*http.Transport
	due     []time.Duration
	sources []exactsim.NodeID
	want    map[exactsim.NodeID][]float64
	window  time.Duration
	tr      *tracer
}

func setupHot(seed uint64, window time.Duration, cacheDir string, tr *tracer) (fixture, error) {
	g, err := exactsim.GenerateDataset("DB", 1)
	if err != nil {
		return nil, err
	}
	f := &hotFixture{g: g, tr: tr, want: map[exactsim.NodeID][]float64{}, window: window}
	mem := newMemNet()
	var urls []string
	for i := 0; i < hotReplicas; i++ {
		// Workers summed over the replicas equal the CPU budget.
		svc, err := exactsim.NewService(g, exactsim.ServiceOptions{Workers: max(nproc/hotReplicas, 1)})
		if err != nil {
			f.close()
			return nil, err
		}
		f.svcs = append(f.svcs, svc)
		srv := mem.serve(tr.handler(httpapi.NewServer(svc, httpapi.ServerOptions{}), spanServer, true))
		f.servers = append(f.servers, srv)
		urls = append(urls, srv.URL)
	}
	hop := mem.transport()
	f.conns = append(f.conns, hop)
	f.router, err = cluster.New(urls, cluster.Options{
		HTTPClient: &http.Client{Transport: tr.transport(hop, spanHop)},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.front = mem.serve(tr.handler(cluster.NewServer(f.router, cluster.ServerOptions{}), spanRouter, false))
	user := mem.transport()
	f.conns = append(f.conns, user)
	if f.client, err = httpapi.NewClient(f.front.URL,
		httpapi.WithHTTPClient(&http.Client{Transport: tr.transport(user, spanClient)})); err != nil {
		f.close()
		return nil, err
	}

	hot := distinct(newRand(seed, "hot/pool"), g.N(), hotPool)
	// Warm pass: every replica computes every hot source, so whichever
	// replica the router (or a hedge) picks answers from its cache.
	reqs := make([]exactsim.Request, len(hot))
	for i, src := range hot {
		reqs[i] = exactsim.Request{Source: src, K: hotK}
	}
	var wg sync.WaitGroup
	warm := make([]error, len(f.svcs))
	for i, svc := range f.svcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm[i] = warmQueries(svc, reqs)
		}()
	}
	wg.Wait()
	for i, err := range warm {
		if err != nil {
			f.close()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
	}
	// The first answer for each source, against which every timed answer
	// must be bit-identical.
	for _, src := range hot {
		resp := f.svcs[0].Query(context.Background(), exactsim.Request{Source: src, K: hotK})
		if resp.Err != nil || !resp.CacheHit {
			f.close()
			return nil, fmt.Errorf("reference answer for source %d: hit=%v err=%v", src, resp.CacheHit, resp.Err)
		}
		f.want[src] = resp.Result.Scores
	}

	f.due = arrivals(newRand(seed, "hot/arrivals"), hotRate, window)
	z, r := newZipf(len(hot), hotZipf), newRand(seed, "hot/sources")
	for range f.due {
		f.sources = append(f.sources, hot[z.draw(r)])
	}
	return f, nil
}

func (f *hotFixture) run(ctx context.Context) *outcome {
	out := &outcome{layer: map[string]float64{}}
	out.ops = make([]op, len(f.due))
	var (
		l       ledger
		pl      plans
		hs      hopService
		before  = statsOf(f.svcs)
		fleet0  = f.router.Stats()
		retries = f.client.RetryStats()
	)
	start := time.Now()
	lat, lag := openLoop(ctx, start, f.due, func(ctx context.Context, i int, due time.Time) {
		ctx, end := f.tr.root(ctx, i, due)
		defer end()
		src := f.sources[i]
		req := exactsim.Request{Source: src, K: hotK}
		resp, err := f.client.Query(ctx, req)
		switch {
		case err != nil:
			l.violate("source %d: transport error: %v", src, err)
		case resp.Err != nil:
			l.violate("source %d: %v", src, resp.Err)
		default:
			pl.observe(resp.Plan)
			hs.observe(ctx, req, resp)
			if err := checkAnswer(resp.Result, resp.TopK, src, f.g.N(), hotK, answerEpsilon(resp)); err != nil {
				l.violate("%v", err)
			} else if !sameBits(resp.Result.Scores, f.want[src]) {
				l.violate("source %d: answer differs bitwise from the first answer for it", src)
			} else if resp.Partial || resp.Degraded {
				l.violate("source %d: strict request answered stamped", src)
			} else {
				out.ops[i].good = true
			}
		}
		if !out.ops[i].good {
			out.ops[i].failed = true
		}
	})
	settle(func() bool {
		for _, b := range f.router.Stats().Backends {
			if b.RouterInFlight > 0 {
				return false
			}
		}
		return servicesIdle(f.svcs...)
	})
	out.heapMB = liveHeapMB()
	for i := range out.ops {
		out.ops[i].latency = lat[i]
		if lat[i] > hotLimit {
			out.ops[i].good = false
		}
	}
	out.span = served(f.due, lat)
	out.lags = lag
	out.violations = l.violations

	after := statsOf(f.svcs)
	var d serviceDelta
	var dd diagDelta
	var most, total int64
	for i := range f.svcs {
		di := deltaOf(before[i], after[i])
		d.add(di)
		dd.add(before[i], after[i])
		most, total = max(most, di.queries), total+di.queries
	}
	d.fill(out.layer)
	dd.fill(out.layer)
	pl.fill(out.layer)
	if total > 0 {
		out.layer["router.replica_skew"] = float64(most) / (float64(total) / float64(len(f.svcs)))
	}
	fleet := f.router.Stats()
	if q := float64(fleet.RouterQueries - fleet0.RouterQueries); q > 0 {
		out.layer["router.hedge_rate"] = float64(fleet.Hedged-fleet0.Hedged) / q
		out.layer["router.retry_rate"] = float64(fleet.Retries-fleet0.Retries) / q
		out.layer["router.shed_rate"] = float64(fleet.Shed-fleet0.Shed) / q
	}
	retryRate(out.layer, retries, f.client.RetryStats())
	hs.fill(out.layer, f.tr)
	if f.tr != nil {
		out.timeBuild("prsim", f.g)
	}
	return out
}

func (f *hotFixture) close() {
	// Front door first, then the router, then the replicas behind it.
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, svc := range f.svcs {
		svc.Close()
	}
	for _, t := range f.conns {
		t.CloseIdleConnections()
	}
}

func statsOf(svcs []*exactsim.Service) []exactsim.ServiceStats {
	out := make([]exactsim.ServiceStats, len(svcs))
	for i, s := range svcs {
		out[i] = s.Stats()
	}
	return out
}

// retryRate records the client's retries per attempt over the window.
func retryRate(m map[string]float64, before, after httpapi.RetryStats) {
	if a := after.Attempts - before.Attempts; a > 0 {
		m["http.retry_rate"] = float64(after.Retries-before.Retries) / float64(a)
	}
}

// hopService splits the Service pseudo-spans of traced HTTP requests
// into the hit cost of cache hits and the queue wait of misses: the
// Service span minus the compute time the answer reports. Misses that ran
// the anytime ladder are left out, as their answer reports the last
// tier's compute only.
type hopService struct {
	mu      sync.Mutex
	compute map[uint64]time.Duration // by request; 0 marks a cache hit
}

func (h *hopService) observe(ctx context.Context, req exactsim.Request, resp exactsim.Response) {
	ref, ok := spanFrom(ctx)
	if !ok || resp.Result == nil || (!resp.CacheHit && req.AllowPartial) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.compute == nil {
		h.compute = map[uint64]time.Duration{}
	}
	if resp.CacheHit {
		h.compute[ref.req] = 0
	} else {
		h.compute[ref.req] = resp.Result.QueryTime
	}
}

func (h *hopService) fill(m map[string]float64, tr *tracer) {
	if tr == nil {
		return
	}
	var hits, wait []float64
	for _, s := range tr.snapshot() {
		compute, ok := h.compute[s.Req]
		switch {
		case s.Name != spanService || !ok:
		case compute == 0:
			hits = append(hits, ms(s.dur()))
		default:
			wait = append(wait, ms(s.dur()-compute))
		}
	}
	if len(hits) > 0 {
		_, m["service.hit_ms"], _ = quartiles(hits)
	}
	if len(wait) > 0 {
		_, m["service.queue_wait_ms"], _ = quartiles(wait)
	}
}
