package exactsim

import (
	"context"
	"sync"
)

// Batch answers many requests concurrently through the worker pool and
// returns responses in request order. Each response carries its own Err;
// Batch itself only fails fast on a closed service or a dead context.
// Submission is bounded by QueueDepth in-flight goroutines, and stops as
// soon as ctx ends: the remaining requests are answered in place with the
// context's error code instead of each paying a goroutine to discover it.
// The bound is the queue's, not the pool's: a submitter receives its
// answer, and frees its slot, before the worker that sent the answer is
// back for the next job, so at times the queue alone holds every
// submission in flight, and one more would be shed as "queue full".
func (s *Service) Batch(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	sem := make(chan struct{}, s.opts.QueueDepth)
	var wg sync.WaitGroup
	for i, req := range reqs {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		// Checked after the wait, so a dead context wins even when a slot
		// was free too (select picks randomly among ready cases): an
		// expired batch never submits more work to the pool. The tail is
		// counted as if each request had gone through Query.
		if err := ctx.Err(); err != nil {
			epoch, cerr := s.state.Load().epoch, ToError(err)
			for j := i; j < len(reqs); j++ {
				out[j] = Response{Request: reqs[j], GraphEpoch: epoch, Err: cerr}
				s.count(out[j])
			}
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = s.Query(ctx, req)
		}()
	}
	wg.Wait()
	return out
}

// Fanout is the number of sources a warm pass over wr computes: its
// Sources when it names any, otherwise TopDegree hubs, otherwise
// defaultWarmTopDegree. Transports hold it against their batch bound.
func (wr WarmRequest) Fanout() int {
	switch {
	case len(wr.Sources) > 0:
		return len(wr.Sources)
	case wr.TopDegree > 0:
		return wr.TopDegree
	}
	return defaultWarmTopDegree
}

// Warm pre-computes the requested sources through the regular query path
// (worker pool, cache fills, diagonal index fills) and reports how many
// completed. Warming is cumulative and idempotent — already-cached sources
// are hits, not recomputations — and an Update mid-warm simply leaves the
// new epoch partially warmed (the warmed chunks of the old epoch are
// unreachable by construction). Callers bound the work with ctx.
func (s *Service) Warm(ctx context.Context, wr WarmRequest) WarmResponse {
	st := s.state.Load()
	if s.Closed() {
		return WarmResponse{GraphEpoch: st.epoch, Err: ToError(ErrServiceClosed)}
	}
	if wr.TopDegree < 0 {
		return WarmResponse{GraphEpoch: st.epoch, Err: Errorf(CodeInvalidArgument,
			"exactsim: negative top_degree %d", wr.TopDegree)}
	}
	sources := wr.Sources
	if len(sources) == 0 {
		sources = topInDegreeSources(st.g, wr.Fanout())
	}
	reqs := make([]Request, len(sources))
	for i, src := range sources {
		// Warming is optional work by definition: it rides the background
		// class so a warm pass can never crowd out user-facing queries.
		reqs[i] = Request{Algorithm: wr.Algorithm, Source: src, Epsilon: wr.Epsilon,
			Priority: PriorityBackground}
	}
	var out WarmResponse
	for _, resp := range s.Batch(ctx, reqs) {
		if resp.Err != nil {
			out.Failed++
		} else {
			out.Warmed++
		}
	}
	// Report the epoch current *after* the pass — queries run on whatever
	// generation is live when they execute, so an Update mid-warm means
	// the final epoch is the (partially) warmed one, not the epoch the
	// hub selection saw.
	out.GraphEpoch = s.state.Load().epoch
	return out
}

// topInDegreeSources picks the k highest in-degree nodes (ties broken by
// lower id, via the TopK ordering contract) — the cheap structural proxy
// for high-π nodes.
func topInDegreeSources(g *Graph, k int) []NodeID {
	deg := make([]float64, g.N())
	for v := range deg {
		deg[v] = float64(g.InDegree(NodeID(v)))
	}
	entries := TopKOf(deg, k, -1)
	sources := make([]NodeID, len(entries))
	for i, e := range entries {
		sources[i] = e.Idx
	}
	return sources
}
