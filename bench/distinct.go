package main

import (
	"context"
	"sync"
	"time"

	exactsim "github.com/exactsim/exactsim"
)

// distinct-service-db: the large-graph miss path. An in-process Service
// answers explicit ExactSim queries for sources drawn uniformly from all
// 100k DB nodes, so the result cache almost never hits; the kernel's
// diagonal phase and the diagonal sample index set the latency, and no
// wire is involved.
const (
	// distinctRate keeps the two workers below capacity on a slow host:
	// one query costs 180–300 ms with both busy, so queue wait stays near
	// zero and shows only when the kernel slows.
	distinctRate    = 4.0 // requests per second, open loop
	distinctEpsilon = 0.02
	distinctK       = 10
	// distinctWarm is the number of top in-degree hubs the warm pass
	// computes, as exactsimd's -warm does.
	distinctWarm = 8
	// distinctLimit is the latency an answer must beat to count toward
	// goodput.
	distinctLimit = 1500 * time.Millisecond
	// distinctQueue holds more than a window's requests, so a slow spell of
	// a shared host shows as queue wait and latency, never as a shed (the
	// default queue of 4 × workers sheds once a query takes ~0.5 s).
	distinctQueue = 256
)

var distinctServiceDB = workload{
	name:  "distinct-service-db",
	setup: setupDistinct,
}

type distinctFixture struct {
	g       *exactsim.Graph
	svc     *exactsim.Service
	due     []time.Duration
	sources []exactsim.NodeID
	window  time.Duration
	tr      *tracer
}

func setupDistinct(seed uint64, window time.Duration, cacheDir string, tr *tracer) (fixture, error) {
	g, err := exactsim.GenerateDataset("DB", 1)
	if err != nil {
		return nil, err
	}
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{Workers: nproc, QueueDepth: distinctQueue})
	if err != nil {
		return nil, err
	}
	deg := make([]float64, g.N())
	for v := range deg {
		deg[v] = float64(g.InDegree(exactsim.NodeID(v)))
	}
	var hubs []exactsim.Request
	for _, e := range exactsim.TopKOf(deg, distinctWarm, -1) {
		hubs = append(hubs, exactsim.Request{Algorithm: "exactsim", Epsilon: distinctEpsilon, Source: e.Idx, K: distinctK})
	}
	if err := warmQueries(svc, hubs); err != nil {
		svc.Close()
		return nil, err
	}
	f := &distinctFixture{g: g, svc: svc, window: window, tr: tr}
	f.due = arrivals(newRand(seed, "distinct/arrivals"), distinctRate, window)
	r := newRand(seed, "distinct/sources")
	for range f.due {
		f.sources = append(f.sources, exactsim.NodeID(r.IntN(g.N())))
	}
	return f, nil
}

func (f *distinctFixture) run(ctx context.Context) *outcome {
	out := &outcome{layer: map[string]float64{}}
	out.ops = make([]op, len(f.due))
	var (
		l          ledger
		k          kernel
		mu         sync.Mutex
		wait, hits []float64
		before     = f.svc.Stats()
	)
	lat, lag := openLoop(ctx, time.Now(), f.due, func(ctx context.Context, i int, due time.Time) {
		ctx, end := f.tr.root(ctx, i, due)
		defer end()
		src := f.sources[i]
		t0 := time.Now()
		resp := f.svc.Query(ctx, exactsim.Request{Algorithm: "exactsim", Epsilon: distinctEpsilon, Source: src, K: distinctK})
		t1 := time.Now()
		if resp.Err != nil {
			l.violate("source %d: %v", src, resp.Err)
			out.ops[i].failed = true
			return
		}
		mu.Lock()
		if resp.CacheHit {
			hits = append(hits, ms(t1.Sub(t0)))
		} else {
			wait = append(wait, ms(t1.Sub(t0)-resp.Result.QueryTime))
		}
		mu.Unlock()
		var phases []time.Duration
		if !resp.CacheHit {
			phases = k.observe(resp.Result)
		}
		f.tr.inProcess(ctx, spanService, t0, t1, phases)
		if err := checkAnswer(resp.Result, resp.TopK, src, f.g.N(), distinctK, answerEpsilon(resp)); err != nil {
			l.violate("%v", err)
			out.ops[i].failed = true
			return
		}
		if resp.Partial || resp.Degraded {
			l.violate("source %d: strict request answered stamped", src)
			out.ops[i].failed = true
			return
		}
		out.ops[i].good = true
	})
	settle(func() bool { return servicesIdle(f.svc) })
	out.heapMB = liveHeapMB()
	for i := range out.ops {
		out.ops[i].latency = lat[i]
		if lat[i] > distinctLimit {
			out.ops[i].good = false
		}
	}
	out.span = served(f.due, lat)
	out.lags = lag
	out.violations = l.violations

	after := f.svc.Stats()
	deltaOf(before, after).fill(out.layer)
	var dd diagDelta
	dd.add(before, after)
	dd.fill(out.layer)
	k.fill(out.layer)
	if len(wait) > 0 {
		_, out.layer["service.queue_wait_ms"], _ = quartiles(wait)
	}
	if len(hits) > 0 {
		_, out.layer["service.hit_ms"], _ = quartiles(hits)
	}
	if f.tr != nil {
		out.timeBuild("exactsim", f.g, exactsim.WithEpsilon(distinctEpsilon))
	}
	return out
}

func (f *distinctFixture) close() { f.svc.Close() }
