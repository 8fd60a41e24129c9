package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/httpapi"
	"github.com/exactsim/exactsim/internal/tokenbucket"
)

// Router fans SimRank queries across a fleet of exactsimd backends. It
// implements exactsim.Querier (like httpapi.Client does), so a fleet
// slots in anywhere one replica did. Routing is consistent-hash by
// source with bounded-load spill; failures retry on the next ring
// candidate; stragglers are hedged on a second replica (safe: replicas
// answer bit-identically); saturated replicas are shed. Router is safe
// for concurrent use.
type Router struct {
	opts Options

	// mu guards the membership slice + ring (rebuilt by Add/Remove).
	mu       sync.RWMutex
	backends []*backend
	ring     *ring

	// pollMu serializes Poll cycles (ticker vs. manual calls).
	pollMu   sync.Mutex
	pollCtx  context.Context
	pollStop context.CancelFunc
	pollWG   sync.WaitGroup

	tracker *latencyTracker

	// hedgeBudget bounds hedge launches to ~HedgeBudgetRatio of
	// successful traffic so hedging cannot amplify a fleet-wide overload.
	hedgeBudget *tokenbucket.Bucket

	clientCfg httpapiClientConfig

	// Router-level counters (fleet stats).
	queries         atomic.Int64
	errors          atomic.Int64
	retries         atomic.Int64
	hedged          atomic.Int64
	hedgeWins       atomic.Int64
	hedgeSuppressed atomic.Int64
	shed            atomic.Int64
	breakerSkips    atomic.Int64
	failOpen        atomic.Int64
}

// New builds a router over the given backend base URLs and runs one
// synchronous membership poll, so backends that are already up are
// routable before the first query. The background poller starts unless
// Options.PollInterval is negative.
func New(backendURLs []string, opts Options) (*Router, error) {
	if len(backendURLs) == 0 {
		return nil, exactsim.Errorf(exactsim.CodeInvalidArgument, "cluster: no backends")
	}
	opts.normalize()
	r := &Router{
		opts:        opts,
		tracker:     newLatencyTracker(),
		hedgeBudget: tokenbucket.New(opts.HedgeBudgetRatio, opts.HedgeBudgetBurst),
		clientCfg:   httpapiClientConfig{hc: opts.HTTPClient, retries: opts.ClientRetries},
	}
	seen := make(map[string]bool, len(backendURLs))
	for _, u := range backendURLs {
		if seen[u] {
			return nil, exactsim.Errorf(exactsim.CodeInvalidArgument, "cluster: duplicate backend %s", u)
		}
		seen[u] = true
		b, err := newBackend(u, &r.clientCfg)
		if err != nil {
			return nil, err
		}
		r.backends = append(r.backends, b)
	}
	r.rebuildRingLocked()

	r.pollCtx, r.pollStop = context.WithCancel(context.Background())
	pctx, cancel := context.WithTimeout(r.pollCtx, r.opts.PollTimeout)
	r.Poll(pctx)
	cancel()
	if r.opts.PollInterval > 0 {
		r.pollWG.Add(1)
		go r.pollLoop()
	}
	return r, nil
}

// Close stops the membership poller. In-flight queries finish.
func (r *Router) Close() {
	r.pollStop()
	r.pollWG.Wait()
}

// Add joins a backend to the fleet. It starts unhealthy until a poll
// admits it; call Poll (or wait a poll interval) to route to it.
func (r *Router) Add(url string) error {
	b, err := newBackend(url, &r.clientCfg)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.backends {
		if have.url == url {
			return exactsim.Errorf(exactsim.CodeInvalidArgument, "cluster: backend already present: %s", url)
		}
	}
	r.backends = append(r.backends, b)
	r.rebuildRingLocked()
	return nil
}

// Remove drops a backend from the fleet; its keys remap to their next
// ring candidates. Queries already on the wire to it finish.
func (r *Router) Remove(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, b := range r.backends {
		if b.url == url {
			r.backends = append(r.backends[:i], r.backends[i+1:]...)
			r.rebuildRingLocked()
			return true
		}
	}
	return false
}

// rebuildRingLocked re-derives the hash ring from the current member
// URLs; callers hold r.mu.
func (r *Router) rebuildRingLocked() {
	ids := make([]string, len(r.backends))
	for i, b := range r.backends {
		ids[i] = b.url
	}
	r.ring = buildRing(ids, r.opts.Vnodes)
}

// snapshot returns the current membership slice (immutable once taken —
// Add/Remove replace the slice).
func (r *Router) snapshot() []*backend {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.backends
}

// errFleetSaturated distinguishes "every healthy replica is shedding"
// from "no healthy replica at all" in pick's error path.
var errFleetSaturated = errors.New("cluster: fleet saturated")

// errBreakersOpen means every healthy replica's circuit breaker is open:
// transports are flapping fleet-wide and the cooldown window has not
// elapsed. Callers see CodeUnavailable either way; the distinct text is
// for operators.
var errBreakersOpen = errors.New("cluster: all replica circuit breakers open")

// errNoHealthy answers a call that needs a live replica when membership
// admits none.
func errNoHealthy() *exactsim.Error {
	return exactsim.Errorf(exactsim.CodeUnavailable, "cluster: no healthy backends")
}

// pick returns this query's replica preference order: ring candidates
// for the source, healthy only, saturated replicas shed, and the list
// stably partitioned so under-bounded-load replicas come first. The
// primary (first element) is therefore the source's ring owner unless
// that owner is currently over its load bound, in which case the next
// arc takes this query — bounded-load rebalancing. Saturation is
// class-aware via rank: lower classes see tighter shed thresholds, so
// background traffic stops reaching a filling replica before batch
// does, and batch before interactive.
func (r *Router) pick(source exactsim.NodeID, rank int) ([]*backend, error) {
	r.mu.RLock()
	backends := r.backends
	ring := r.ring
	r.mu.RUnlock()

	order := ring.candidates(keyHash(int64(source)), make([]int, 0, len(backends)))
	healthy := 0
	broken := 0
	now := time.Now()
	var total int64
	eligible := make([]*backend, 0, len(order))
	for _, idx := range order {
		b := backends[idx]
		if !b.healthy.Load() {
			continue
		}
		healthy++
		total += b.inflight.Load()
		// An open breaker skips the replica without burning an attempt —
		// blocked() is non-mutating, so scanning never claims the
		// half-open probe slot (tryOne's acquire does that).
		if r.opts.breakerEnabled() && b.brk.blocked(now, r.opts.BreakerCooldown) {
			broken++
			r.breakerSkips.Add(1)
			continue
		}
		if b.saturated(&r.opts, rank) {
			continue
		}
		eligible = append(eligible, b)
	}
	if healthy == 0 {
		// Fail open (panic routing): every backend is poll-ejected, so the
		// health verdict itself is the suspect — the prober rides the same
		// network the queries do, and a fault that blinds it must not
		// blind the data path. A query with zero candidates is a
		// guaranteed error; optimistically walking the ring costs one
		// attempt against a possibly-dead backend and rescues the case
		// where only the probes are failing. Breaker-open backends stay
		// excluded: their verdict comes from real query traffic, not
		// probes.
		for _, idx := range order {
			b := backends[idx]
			if r.opts.breakerEnabled() && b.brk.blocked(now, r.opts.BreakerCooldown) {
				r.breakerSkips.Add(1)
				continue
			}
			eligible = append(eligible, b)
		}
		if len(eligible) == 0 {
			return nil, errBreakersOpen
		}
		r.failOpen.Add(1)
		return eligible, nil
	}
	if len(eligible) == 0 {
		if broken == healthy {
			return nil, errBreakersOpen
		}
		return nil, errFleetSaturated
	}
	// Bounded load: cap any replica at factor × fleet mean (+1 so a
	// near-idle fleet never blocks its own primary). Stable partition
	// keeps ring order within each class.
	bound := int64(r.opts.BoundedLoadFactor*float64(total)/float64(healthy)) + 1
	under := make([]*backend, 0, len(eligible))
	var over []*backend
	for _, b := range eligible {
		if b.inflight.Load() <= bound {
			under = append(under, b)
		} else {
			over = append(over, b)
		}
	}
	return append(under, over...), nil
}

// Query answers one request through the fleet. The response is exactly
// what the owning backend produced (epoch, cache-hit flag, structured
// error); router-level failures (no capacity, no health) surface as
// CodeUnavailable, matching what a single saturated replica would say.
func (r *Router) Query(ctx context.Context, req exactsim.Request) exactsim.Response {
	body, resp := r.relay(ctx, req)
	if body == nil {
		return resp
	}
	if err := httpapi.DecodeResponse(body, &resp); err != nil {
		// The attempt's scan passed, so the body is well-formed JSON that
		// does not fit the answer's types; another replica would send the
		// same bytes.
		r.errors.Add(1)
		return exactsim.Response{Request: req,
			Err: exactsim.Errorf(exactsim.CodeUnavailable, "cluster: undecodable answer: %v", err)}
	}
	return resp
}

// relay answers one request through the fleet without decoding the
// answer: a success comes back as the replica's 200 body, verbatim, and
// anything else as a nil body and the error Response.
func (r *Router) relay(ctx context.Context, req exactsim.Request) ([]byte, exactsim.Response) {
	res := r.route(ctx, req, nil)
	return res.body, res.resp
}

// QueryStream answers one request through the fleet as a refinement
// stream: emit receives each intermediate record as its replica produces
// it, and the returned Response is the terminal answer — bit-identical
// to what Query would return for the same request. Streams are never
// hedged (two replicas would double-deliver refinements) and retry on
// the next ring candidate only while nothing has reached emit yet; once
// a refinement is out, replaying the ladder from another replica would
// hand the caller the same tiers twice, so a later failure is final.
// QueryStream returns only after its last call to emit.
func (r *Router) QueryStream(ctx context.Context, req exactsim.Request, emit func(exactsim.Response)) exactsim.Response {
	if emit == nil {
		emit = func(exactsim.Response) {}
	}
	return r.route(ctx, req, emit).resp
}

// route sends one request through the fleet, a query when emit is nil
// and a stream otherwise, and counts it.
func (r *Router) route(ctx context.Context, req exactsim.Request, emit func(exactsim.Response)) (res tryResult) {
	r.queries.Add(1)
	defer func() {
		if res.resp.Err != nil {
			r.errors.Add(1)
		}
	}()
	// Expired on arrival: a request whose deadline is already gone must
	// not spend a candidate walk, let alone wire attempts.
	if e := exactsim.Expired(ctx); e != nil {
		return tryResult{resp: exactsim.Response{Request: req, Err: e}}
	}
	// An unknown class ranks 0, as interactive: the replica rejects it as
	// invalid_argument, and mis-shedding a doomed request would hide that.
	rank, _ := req.Priority.Rank()
	cands, err := r.pick(req.Source, rank)
	if err != nil {
		return tryResult{resp: exactsim.Response{Request: req, Err: r.pickError(err)}}
	}
	if len(cands) > r.opts.MaxAttempts {
		cands = cands[:r.opts.MaxAttempts]
	}
	return r.race(ctx, cands, req, emit)
}

// pickError converts a pick failure into the wire unavailable, counting
// sheds and stamping the retry_after_ms hint: a saturated fleet's state
// is refreshed by the next poll, an open breaker by its cooldown —
// retrying sooner than either can only find the same answer.
func (r *Router) pickError(err error) *exactsim.Error {
	e := exactsim.Errorf(exactsim.CodeUnavailable, "%s", err.Error())
	switch {
	case errors.Is(err, errFleetSaturated):
		r.shed.Add(1)
		e.WithRetryAfter(r.opts.PollInterval)
	case errors.Is(err, errBreakersOpen):
		e.WithRetryAfter(r.opts.BreakerCooldown)
	}
	return e
}

// tryResult is one replica attempt's outcome: a query's success as the
// replica's 200 body, a stream's terminal record or any error as resp.
type tryResult struct {
	body      []byte
	resp      exactsim.Response
	retryable bool
	hedge     bool // launched by the hedge timer
	latency   time.Duration
}

// race runs the attempt loop for one request: launch on the primary; on
// a retryable failure, launch the next candidate; if a query's attempt
// outlives the hedge delay, race the next candidate concurrently and
// take the first answer. Losing attempts are cancelled. Replica
// determinism is what makes taking "whichever answered first" sound:
// both would have returned bit-identical scores.
//
// A stream (non-nil emit) is never hedged, and it waits for its running
// attempt instead of returning at ctx's end: the attempt observes ctx
// and ends, so emit is never called after race returns.
func (r *Router) race(ctx context.Context, cands []*backend, req exactsim.Request, emit func(exactsim.Response)) tryResult {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan tryResult, len(cands))
	next := 0
	outstanding := 0
	launch := func(hedge bool) bool {
		if next >= len(cands) {
			return false
		}
		b := cands[next]
		next++
		outstanding++
		go func() {
			results <- r.tryOne(rctx, b, req, hedge, emit)
		}()
		return true
	}
	launch(false)

	stream := emit != nil
	var hedgeC <-chan time.Time
	if !stream && !r.opts.DisableHedging && len(cands) > 1 {
		if d, ok := r.hedgeDelay(); ok {
			hedgeTimer := time.NewTimer(d)
			defer hedgeTimer.Stop()
			hedgeC = hedgeTimer.C
		}
	}
	var done <-chan struct{}
	if !stream {
		done = ctx.Done()
	}

	var last tryResult
	for {
		select {
		case <-done:
			return tryResult{resp: exactsim.Response{Request: req, Err: exactsim.ToError(ctx.Err())}}
		case <-hedgeC:
			hedgeC = nil
			// The timer only says this attempt is a straggler; the budget
			// says whether the fleet can afford a speculative double-send.
			// When recent traffic has not banked enough successes, the
			// hedge is suppressed and the primary rides out alone.
			if !r.hedgeBudget.Spend() {
				r.hedgeSuppressed.Add(1)
				continue
			}
			if launch(true) {
				r.hedged.Add(1)
			}
		case res := <-results:
			outstanding--
			if !res.retryable {
				if res.resp.Err == nil {
					r.tracker.record(res.latency)
					if res.hedge {
						r.hedgeWins.Add(1)
					} else if !stream {
						r.hedgeBudget.Earn()
					}
				}
				return res
			}
			last = res
			// A failed attempt immediately claims the next candidate —
			// no reason to wait for the hedge timer to do it.
			if launch(false) {
				r.retries.Add(1)
				continue
			}
			if outstanding == 0 {
				return last
			}
		}
	}
}

// tryOne sends req to b once: as a query when emit is nil, else as a
// stream whose records go to emit. Transport failures and retryable
// protocol codes (unavailable, closed, internal) report retryable;
// everything else — success, invalid_argument, not_found, deadline — is
// final, and so is any outcome of a stream that already reached emit.
// The breaker brackets the exchange: acquire gates the send (arbitrating
// the half-open probe), and the transport outcome feeds back — except
// when ctx was cancelled, because a hedge loser's abort says nothing
// about the replica's transport and must not trip its breaker.
func (r *Router) tryOne(ctx context.Context, b *backend, req exactsim.Request, hedge bool, emit func(exactsim.Response)) tryResult {
	if r.opts.breakerEnabled() && !b.brk.acquire(time.Now(), r.opts.BreakerCooldown) {
		// Raced open between pick and send (or lost the half-open probe
		// slot): fail fast without touching the wire.
		r.breakerSkips.Add(1)
		return tryResult{
			resp: exactsim.Response{Request: req,
				Err: exactsim.Errorf(exactsim.CodeUnavailable, "cluster: %s: circuit breaker open", b.url)},
			retryable: ctx.Err() == nil,
			hedge:     hedge,
		}
	}
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	var (
		res     = tryResult{hedge: hedge}
		err     error
		emitted bool
		start   = time.Now()
	)
	if emit == nil {
		res.body, res.resp, err = b.client.QueryBody(ctx, req)
	} else {
		res.resp, err = b.client.QueryStream(ctx, req, func(rec exactsim.Response) {
			emitted = true
			emit(rec)
		})
	}
	res.latency = time.Since(start)
	// Once a record is out, replaying the ladder elsewhere would hand the
	// caller the same tiers twice.
	retryable := ctx.Err() == nil && !emitted
	if err != nil {
		// Transport failure (dial refused, connection cut mid-body, a
		// 200 body that fails the JSON scan, or our own cancellation when
		// another attempt already won).
		if r.opts.breakerEnabled() && ctx.Err() == nil {
			b.brk.result(false, r.opts.BreakerThreshold, time.Now())
		}
		res.resp = exactsim.Response{Request: req,
			Err: exactsim.Errorf(exactsim.CodeUnavailable, "cluster: %s: %v", b.url, err)}
		res.retryable = retryable
		return res
	}
	// Any intact protocol response — a success or a decoded error —
	// proves the transport works.
	if r.opts.breakerEnabled() {
		b.brk.result(true, r.opts.BreakerThreshold, time.Now())
	}
	// A protocol error comes without a body, so a retryable reply never
	// carries one.
	res.retryable = res.resp.Err != nil && res.resp.Err.Code.Retryable() && retryable
	return res
}

// hedgeDelay is the tracked HedgeQuantile latency clamped to the
// [HedgeMinDelay, HedgeMaxDelay] window; false until the tracker has
// seen enough traffic to define a straggler.
func (r *Router) hedgeDelay() (time.Duration, bool) {
	d, ok := r.tracker.quantile(r.opts.HedgeQuantile)
	if !ok {
		return 0, false
	}
	if d < r.opts.HedgeMinDelay {
		d = r.opts.HedgeMinDelay
	}
	if d > r.opts.HedgeMaxDelay {
		d = r.opts.HedgeMaxDelay
	}
	return d, true
}

// Batch answers many requests through the fleet, responses aligned with
// requests by index. Requests are grouped by their primary replica and
// shipped as per-replica sub-batches (one round trip each); a sub-batch
// whose transport fails falls back to routing its members individually,
// which re-enters the retry/hedge path.
func (r *Router) Batch(ctx context.Context, reqs []exactsim.Request) []exactsim.Response {
	out := make([]exactsim.Response, len(reqs))
	groups := make(map[*backend][]int)
	for i, req := range reqs {
		rank, _ := req.Priority.Rank()
		cands, err := r.pick(req.Source, rank)
		if err != nil {
			r.queries.Add(1)
			r.errors.Add(1)
			out[i] = exactsim.Response{Request: req, Err: r.pickError(err)}
			continue
		}
		groups[cands[0]] = append(groups[cands[0]], i)
	}
	var wg sync.WaitGroup
	for b, idxs := range groups {
		wg.Add(1)
		go func(b *backend, idxs []int) {
			defer wg.Done()
			sub := make([]exactsim.Request, len(idxs))
			for j, i := range idxs {
				sub[j] = reqs[i]
			}
			b.inflight.Add(int64(len(idxs)))
			resps, err := b.client.Batch(ctx, sub)
			b.inflight.Add(-int64(len(idxs)))
			if err == nil && len(resps) == len(idxs) {
				for j, i := range idxs {
					out[i] = resps[j]
					r.queries.Add(1)
					if out[i].Err != nil {
						r.errors.Add(1)
					}
				}
				return
			}
			// The whole sub-batch transport failed (replica died between
			// pick and send): route each member individually — Query's
			// retry path finds the next candidates.
			for _, i := range idxs {
				out[i] = r.Query(ctx, reqs[i])
			}
		}(b, idxs)
	}
	wg.Wait()
	return out
}

// Warm fans a warm request to every healthy replica — each fills its own
// diagonal sample index (sources it will own plus shared hub cells) —
// and sums the outcomes. GraphEpoch reports the fleet max afterwards. A
// replica that fails or rejects the request counts as one failure,
// unless every replica that answered rejected it wholesale (an invalid
// request, or a closed fleet): that rejection is then the answer, with
// the highest epoch the refusing replicas reported, as a replica's own
// rejection carries its epoch.
func (r *Router) Warm(ctx context.Context, wr exactsim.WarmRequest) exactsim.WarmResponse {
	var (
		mu                         sync.Mutex
		out                        exactsim.WarmResponse
		wg                         sync.WaitGroup
		healthy, answered, refused int
		rejection                  *exactsim.Error
		rejectedEpoch              uint64
	)
	for _, b := range r.snapshot() {
		if !b.healthy.Load() {
			continue
		}
		healthy++
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			resp, err := b.client.Warm(ctx, wr)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				out.Failed++ // a transport failure: the replica was not reached
				return
			}
			answered++
			if resp.Err != nil {
				refused++
				rejection = resp.Err
				rejectedEpoch = max(rejectedEpoch, resp.GraphEpoch)
				out.Failed++
				return
			}
			out.Warmed += resp.Warmed
			out.Failed += resp.Failed
			if resp.GraphEpoch > out.GraphEpoch {
				out.GraphEpoch = resp.GraphEpoch
			}
		}(b)
	}
	wg.Wait()
	switch {
	case healthy == 0:
		out.Err = errNoHealthy()
	case answered > 0 && refused == answered:
		return exactsim.WarmResponse{GraphEpoch: rejectedEpoch, Err: rejection}
	}
	return out
}

// SingleSource implements exactsim.Querier over the fleet.
func (r *Router) SingleSource(ctx context.Context, source exactsim.NodeID) (*exactsim.QueryResult, error) {
	resp := r.Query(ctx, exactsim.Request{Source: source})
	if resp.Err != nil {
		return nil, resp.Err
	}
	return resp.Result, nil
}

// TopK implements exactsim.Querier over the fleet.
func (r *Router) TopK(ctx context.Context, source exactsim.NodeID, k int) ([]exactsim.Entry, *exactsim.QueryResult, error) {
	if k <= 0 {
		return nil, nil, exactsim.Errorf(exactsim.CodeInvalidArgument, "cluster: k %d not positive", k)
	}
	resp := r.Query(ctx, exactsim.Request{Source: source, K: k})
	if resp.Err != nil {
		return nil, nil, resp.Err
	}
	return resp.TopK, resp.Result, nil
}

// Name implements exactsim.Querier; the fleet answers with its backends'
// default algorithm, which the router does not re-declare.
func (r *Router) Name() string { return "cluster" }

// Graph implements exactsim.Querier: like httpapi.Client, the remote
// graph is not materialized router-side.
func (r *Router) Graph() *exactsim.Graph { return nil }
