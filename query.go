package exactsim

import (
	"context"
	"math"

	"github.com/exactsim/exactsim/internal/plan"
)

// answerKey identifies one complete single-source answer. Epsilon is
// part of the key because the same (algorithm, source) pair answers
// differently at different error targets; 0 means "service default".
type answerKey struct {
	algorithm string
	source    NodeID
	epsilon   float64
}

// Query answers one request, blocking until a worker finishes it or ctx
// ends. The per-request deadline (ctx, tightened by DefaultTimeout) is
// live inside the algorithm's iteration loops, so a timeout interrupts
// even a single long-running ExactSim query mid-computation.
func (s *Service) Query(ctx context.Context, req Request) Response {
	resp := s.query(ctx, req, nil)
	s.count(resp)
	return resp
}

// QueryStream answers one request as a refinement sequence: emit receives
// each intermediate accuracy tier (Partial responses, coarse→target,
// called sequentially on a worker goroutine before QueryStream returns),
// and the returned Response is the terminal record — bit-identical to
// what Query would have answered for the same request. Cache hits and
// non-error-driven algorithms skip straight to the terminal record.
func (s *Service) QueryStream(ctx context.Context, req Request, emit func(Response)) Response {
	if emit == nil {
		emit = func(Response) {}
	}
	resp := s.query(ctx, req, emit)
	s.count(resp)
	return resp
}

func (s *Service) count(resp Response) {
	s.queries.Add(1)
	if resp.CacheHit {
		s.cacheHits.Add(1)
	}
	if resp.Err != nil {
		s.errors.Add(1)
	}
}

func (s *Service) query(ctx context.Context, req Request, emit func(Response)) Response {
	// Reject before the cache lookup: a closed service answers nothing,
	// not even cached results.
	st := s.state.Load()
	if s.Closed() {
		return s.fail(st, req, ToError(ErrServiceClosed))
	}
	if err := s.normalizeRequest(&req, st); err != nil {
		return s.fail(st, req, err)
	}

	// One pipeline: plan ("auto" only), look up the cache on the plan
	// asked for, let the planner substitute a cheaper one, then cache,
	// single-flight and execute under the plan that runs. The request is
	// rewritten at each step, so every later stage keys on the plan in
	// force and two alike-planned requests share one answer.
	auto := req.Algorithm == AlgorithmAuto
	in := plan.Input{Algorithm: req.Algorithm, Epsilon: req.Epsilon}
	if auto {
		in.Algorithm = ""
		s.autoPlanned.Add(1)
	}
	asked := st.planner.Plan(in)
	req.Algorithm = asked.Algorithm
	ran := asked
	var resp Response
	// A cached answer to the plan asked for preempts substitution: a hit
	// is cheaper than any degraded plan.
	if res, ok := s.cached(st, req); ok {
		resp = s.respond(st, req, res, true)
	} else {
		ran = s.substitute(ctx, st, req, in, asked)
		req.Algorithm, req.Epsilon = ran.Algorithm, ran.Epsilon
		resp = s.compute(ctx, st, req, emit)
	}
	return s.stampDegraded(st, resp, auto, asked, ran)
}

// cached looks req up in st's answers (never for NoCache requests).
func (s *Service) cached(st *graphState, req Request) (*QueryResult, bool) {
	if req.NoCache {
		return nil, false
	}
	return st.answers.get(answerKey{algorithm: req.Algorithm, source: req.Source, epsilon: req.Epsilon})
}

// compute answers req under the plan that runs, through st's answer
// memo: concurrent queries for the same cold key elect one leader to
// compute; the rest wait on it (or their own context) instead of
// duplicating the work across the pool — N clients asking for the same
// cold key would otherwise saturate the pool with N copies of the same
// expensive computation (cache stampede). NoCache requests bypass the
// memo, both lookup and fill.
func (s *Service) compute(ctx context.Context, st *graphState, req Request, emit func(Response)) Response {
	if req.NoCache {
		return s.dispatch(ctx, st, req, emit)
	}
	key := answerKey{algorithm: req.Algorithm, source: req.Source, epsilon: req.Epsilon}
	if emit != nil {
		// Streaming requests want the refinement sequence, which another
		// leader's single answer cannot provide — they bypass the
		// single-flight (the cache pre-check in query still
		// short-circuits warm keys straight to the terminal record), and
		// only fill the memo.
		resp := s.dispatch(ctx, st, req, emit)
		if complete(resp) {
			st.answers.put(key, resp.Result)
		}
		return resp
	}
	for {
		e, leader := st.answers.claim(key)
		if leader {
			resp := s.dispatch(ctx, st, req, nil)
			st.answers.finish(e, resp.Result, complete(resp))
			return resp
		}
		res, ok, err := e.wait(ctx)
		if err != nil {
			return s.fail(st, req, ToError(err))
		}
		if ok {
			// A kept answer, or the leader's: a hit as far as this request
			// is concerned.
			return s.respond(st, req, res, true)
		}
		// The leader failed (its deadline, a build error) or answered
		// Partial (its deadline is not ours): loop and retry, perhaps as
		// leader.
	}
}

// complete reports whether resp is an answer the memo may keep and share:
// it succeeded and met its target accuracy. A Partial tier never enters
// the memo.
func complete(resp Response) bool {
	return resp.Err == nil && !resp.Partial
}

// stampDegraded is the pipeline's one exit. An answer whose plan differs
// from the one asked for, in method or in effective epsilon, is stamped
// Degraded and — if it succeeded; a substitute that still failed
// degraded nobody's accuracy — counted in degraded_queries. An "auto"
// answer gets its Plan block, naming the plan that ran. Intermediate
// stream records carry neither: the terminal record is the auditable
// answer.
func (s *Service) stampDegraded(st *graphState, resp Response, auto bool, asked, ran plan.Decision) Response {
	eps := st.planner.Effective(ran.Epsilon)
	if ran.Algorithm != asked.Algorithm || eps != st.planner.Effective(asked.Epsilon) {
		resp.Degraded = true
		if resp.Err == nil {
			s.degradedQueries.Add(1)
		}
	}
	if auto {
		resp.Plan = &PlanInfo{Algorithm: ran.Algorithm, EffectiveEpsilon: eps, Reason: ran.Reason}
	}
	return resp
}

// normalizeRequest is the single request-validation point of the Service
// boundary (Query, QueryStream, Batch and Warm all funnel through it):
// defaults applied, then every field screened with a coded
// invalid_argument/not_found before any dispatch — no per-algorithm
// ad-hoc handling downstream.
func (s *Service) normalizeRequest(req *Request, st *graphState) *Error {
	if req.Algorithm == "" {
		req.Algorithm = s.opts.DefaultAlgorithm
	}
	if req.Algorithm != AlgorithmAuto && !KnownAlgorithm(req.Algorithm) {
		return Errorf(CodeNotFound,
			"exactsim: unknown algorithm %q (have auto, %v)", req.Algorithm, Algorithms())
	}
	if req.K < 0 {
		return Errorf(CodeInvalidArgument, "exactsim: negative k %d", req.K)
	}
	if req.Source < 0 || int(req.Source) >= st.g.N() {
		return Errorf(CodeInvalidArgument,
			"exactsim: source %d out of range [0,%d)", req.Source, st.g.N())
	}
	// Epsilon is part of the querier and cache keys, so screen it here:
	// a NaN key would never match itself and leak a querier slot per
	// request (0 is the "service default" sentinel).
	if math.IsNaN(req.Epsilon) || math.IsInf(req.Epsilon, 0) ||
		req.Epsilon < 0 || req.Epsilon >= 1 {
		return Errorf(CodeInvalidArgument,
			"exactsim: epsilon %g outside (0,1) (0 = service default)", req.Epsilon)
	}
	if _, ok := req.Priority.Rank(); !ok {
		return Errorf(CodeInvalidArgument,
			"exactsim: unknown priority %q (have %q, %q, %q)",
			req.Priority, PriorityInteractive, PriorityBatch, PriorityBackground)
	}
	return nil
}
