package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/httpapi"
)

// overload-churn-db: a mixed-priority open loop at twice the mix's
// capacity through httpapi into one Service, while the graph changes
// under it. The only workload that reaches the planner's flexible path,
// CoDel, brownout, the anytime ladder, epoch swaps and retry budgets.
const (
	// overloadRate is twice the mix's capacity: a closed loop of nproc
	// callers completed 12.5–15 (median 13) requests/s of this mix at the
	// seed commit on two cores (README.md, "Overload rate").
	overloadRate = 26.0
	overloadZipf = 1.0
	overloadK    = 10
	// updateEvery alternates the served graph between DB and DB plus
	// extraEdges seeded edges.
	updateEvery = 5 * time.Second
	extraEdges  = 500
)

// class is one priority class of the overload mix.
type class struct {
	share    float64
	req      exactsim.Request
	deadline time.Duration
	// strict requests opted into neither partial nor degraded answers, so
	// they must never come back stamped.
	strict bool
}

var overloadMix = []class{
	{share: 0.5, deadline: 500 * time.Millisecond, strict: true,
		req: exactsim.Request{Epsilon: 0.05, K: overloadK, Priority: exactsim.PriorityInteractive}},
	{share: 0.3, deadline: 1500 * time.Millisecond,
		req: exactsim.Request{Algorithm: "exactsim", Epsilon: 0.016, K: overloadK,
			Priority: exactsim.PriorityBatch, AllowPartial: true}},
	{share: 0.2, deadline: 3 * time.Second,
		req: exactsim.Request{Algorithm: "exactsim", Epsilon: 0.02, K: overloadK,
			Priority: exactsim.PriorityBackground, AllowDegraded: true}},
}

var overloadChurnDB = workload{
	name:  "overload-churn-db",
	setup: setupOverload,
}

type overloadFixture struct {
	graphs  [2]*exactsim.Graph // DB, DB plus the extra edges
	svc     *exactsim.Service
	server  *httptest.Server
	client  *httpapi.Client
	conns   *http.Transport
	due     []time.Duration
	sources []exactsim.NodeID
	classes []int
	window  time.Duration
	tr      *tracer
}

func setupOverload(seed uint64, window time.Duration, cacheDir string, tr *tracer) (fixture, error) {
	g, err := exactsim.GenerateDataset("DB", 1)
	if err != nil {
		return nil, err
	}
	mem := newMemNet()
	f := &overloadFixture{window: window, tr: tr, conns: mem.transport()}
	f.graphs = [2]*exactsim.Graph{g, withExtraEdges(g, newRand(seed, "overload/edges"), extraEdges)}
	if f.svc, err = exactsim.NewService(g, exactsim.ServiceOptions{Workers: nproc}); err != nil {
		return nil, err
	}
	f.server = mem.serve(tr.handler(httpapi.NewServer(f.svc, httpapi.ServerOptions{}), spanServer, true))
	if f.client, err = httpapi.NewClient(f.server.URL,
		httpapi.WithHTTPClient(&http.Client{Transport: tr.transport(f.conns, spanClient)})); err != nil {
		f.close()
		return nil, err
	}
	// Warm pass: build the interactive class's planned querier (PRSim's
	// index) and the background class's, as a serving daemon would have.
	for _, c := range []class{overloadMix[0], overloadMix[2]} {
		req := c.req
		req.Priority = exactsim.PriorityBackground
		if resp := f.svc.Query(context.Background(), req); resp.Err != nil {
			f.close()
			return nil, fmt.Errorf("warm pass: %v", resp.Err)
		}
	}

	f.due = poisson(newRand(seed, "overload/arrivals"), overloadRate, window)
	perm := newRand(seed, "overload/perm").Perm(g.N())
	z, rs := newZipf(g.N(), overloadZipf), newRand(seed, "overload/sources")
	for range f.due {
		f.sources = append(f.sources, exactsim.NodeID(perm[z.draw(rs)]))
	}
	// Every run sends each class its exact share, in seeded order.
	for c, cl := range overloadMix {
		n := int(math.Round(cl.share * float64(len(f.due))))
		if c == len(overloadMix)-1 {
			n = len(f.due) - len(f.classes)
		}
		for range n {
			f.classes = append(f.classes, c)
		}
	}
	rc := newRand(seed, "overload/classes")
	rc.Shuffle(len(f.classes), func(i, j int) { f.classes[i], f.classes[j] = f.classes[j], f.classes[i] })
	return f, nil
}

// withExtraEdges returns g plus k seeded undirected edges it lacked.
func withExtraEdges(g *exactsim.Graph, r *rand.Rand, k int) *exactsim.Graph {
	d := exactsim.DynamicFrom(g)
	for added := 0; added < k; {
		u, v := exactsim.NodeID(r.IntN(g.N())), exactsim.NodeID(r.IntN(g.N()))
		if d.AddUndirected(u, v) {
			added++
		}
	}
	return d.Snapshot()
}

func (f *overloadFixture) run(ctx context.Context) *outcome {
	out := &outcome{layer: map[string]float64{}}
	out.ops = make([]op, len(f.due))
	var (
		l        ledger
		pl       plans
		hs       hopService
		stamped  atomic.Int64
		dd       diagDelta
		updates  []float64
		before   = f.svc.Stats()
		retries  = f.client.RetryStats()
		start    = time.Now()
		epoch    = before // stats at the start of the current epoch
		updating sync.WaitGroup
	)
	// update swaps in the next graph. Each swap starts a fresh epoch with
	// its own diagonal index, so the index's counters are summed epoch by
	// epoch.
	update := func(k int) {
		dd.add(epoch, f.svc.Stats())
		t0 := time.Now()
		if _, err := f.svc.Update(f.graphs[k%2]); err != nil {
			l.violate("update %d: %v", k, err)
		}
		updates = append(updates, ms(time.Since(t0)))
		epoch = f.svc.Stats()
	}
	inWindow := int((f.window - 1) / updateEvery) // swaps strictly inside the window
	updating.Add(1)
	go func() {
		defer updating.Done()
		for k := 1; k <= inWindow; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * updateEvery)))
			update(k)
		}
	}()

	lat, lag := openLoop(ctx, start, f.due, func(ctx context.Context, i int, due time.Time) {
		c := overloadMix[f.classes[i]]
		ctx, end := f.tr.root(ctx, i, due)
		defer end()
		ctx, cancel := context.WithDeadline(ctx, due.Add(c.deadline))
		defer cancel()
		req := c.req
		req.Source = f.sources[i]
		resp, err := f.client.Query(ctx, req)
		switch {
		case err != nil:
			// The client gave up at the request's deadline: an outcome the
			// overload contract allows. Anything else is a failure.
			if !errors.Is(err, context.DeadlineExceeded) {
				l.violate("source %d: transport error: %v", req.Source, err)
				out.ops[i].failed = true
			}
			return
		case resp.Err != nil:
			// Sheds, CoDel drops and deadline hits are the overload
			// machinery working; they cost goodput, not correctness.
			if resp.Err.Code != exactsim.CodeUnavailable && resp.Err.Code != exactsim.CodeDeadlineExceeded {
				l.violate("source %d: %v", req.Source, resp.Err)
				out.ops[i].failed = true
			}
			return
		}
		pl.observe(resp.Plan)
		hs.observe(ctx, req, resp)
		stamp := resp.Partial || resp.Degraded
		if stamp {
			stamped.Add(1)
		}
		if err := stampCheck(c, req, resp); err != nil {
			l.violate("%v", err)
			out.ops[i].failed = true
			return
		}
		if err := checkAnswer(resp.Result, resp.TopK, req.Source, f.graphs[0].N(), overloadK, answerEpsilon(resp)); err != nil {
			l.violate("%v", err)
			out.ops[i].failed = true
			return
		}
		out.ops[i].good = !stamp && time.Since(due) <= c.deadline
	})
	updating.Wait()
	// Closing the server waits for its handlers: one still encoding an
	// answer whose caller gave up at the deadline holds megabytes that the
	// heap read must not see.
	f.server.Close()
	settle(func() bool { return servicesIdle(f.svc) })
	// One more swap once the window has drained drops the last epoch's
	// answers, so the heap read measures what the service retains across
	// epochs (graphs, indexes, anything leaked), not how many answers
	// happened to land late in the window.
	update(inWindow + 1)
	settle(func() bool { return servicesIdle(f.svc) })
	dd.add(epoch, f.svc.Stats())
	out.heapMB = liveHeapMB()
	for i := range out.ops {
		out.ops[i].latency = lat[i]
	}
	out.span = served(f.due, lat)
	out.lags = lag
	out.violations = l.violations

	deltaOf(before, f.svc.Stats()).fill(out.layer)
	dd.fill(out.layer)
	pl.fill(out.layer)
	hs.fill(out.layer, f.tr)
	retryRate(out.layer, retries, f.client.RetryStats())
	if len(out.ops) > 0 {
		out.layer["service.stamped_rate"] = float64(stamped.Load()) / float64(len(out.ops))
	}
	if len(updates) > 0 {
		out.layer["service.update_ms"] = mean(updates)
	}
	if f.tr != nil {
		out.timeBuild("prsim", f.graphs[0], exactsim.WithEpsilon(overloadMix[0].req.Epsilon))
	}
	return out
}

// stampCheck enforces the stamping contract: a strict request is never
// answered stamped; a partial answer reports an achieved ε no tighter
// than the one requested; a degraded answer shows the cheaper plan it ran.
func stampCheck(c class, req exactsim.Request, resp exactsim.Response) error {
	switch {
	case c.strict && (resp.Partial || resp.Degraded):
		return fmt.Errorf("source %d: strict request answered stamped (partial=%v degraded=%v)",
			req.Source, resp.Partial, resp.Degraded)
	case resp.Partial && !(resp.AchievedEpsilon >= req.Epsilon):
		return fmt.Errorf("source %d: partial answer claims ε %g, tighter than the requested %g",
			req.Source, resp.AchievedEpsilon, req.Epsilon)
	case resp.Degraded && resp.Request.Epsilon <= req.Epsilon && resp.Request.Algorithm == req.Algorithm:
		return fmt.Errorf("source %d: degraded answer ran the requested plan", req.Source)
	}
	return nil
}

func (f *overloadFixture) close() {
	if f.server != nil {
		f.server.Close()
	}
	f.svc.Close()
	f.conns.CloseIdleConnections()
}
