package exactsim

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"time"

	"github.com/exactsim/exactsim/internal/algo"
	"github.com/exactsim/exactsim/internal/plan"
)

// querierKey identifies one constructed querier. Unlike answerKey it has
// no source field — a querier answers every source — and the distinct
// type keeps a future edit from accidentally fragmenting the querier memo
// per source.
type querierKey struct {
	algorithm string
	epsilon   float64
}

// built is the outcome of one querier build.
type built struct {
	q   Querier
	err error
}

// execute evaluates req coarse→target along the accuracy tier ladder.
// Error-driven algorithms asked to stream, or to allow a partial answer
// under a deadline, refine along the planner's tiers; every other
// request runs the one-tier ladder of its target. The last tier is
// req.Epsilon verbatim, so the terminal answer — and the memo entry it
// fills — is the same whatever the ladder. Intermediate tiers go to emit
// as Partial records; a deadline firing mid-ladder ships the best
// completed tier for AllowPartial requests and the plain coded error for
// everyone else (the strict contract survives streaming).
func (s *Service) execute(ctx context.Context, st *graphState, req Request, emit func(Response)) (resp Response) {
	// A panicking algorithm costs its request a CodeInternal response,
	// not the process its life: the worker must survive to drain the
	// queue, and a fleet replica must stay pollable so the router can
	// keep routing around the poisoned query. The stack is captured into
	// stats (panics_recovered / last_panic) and the process log.
	defer func() {
		if v := recover(); v != nil {
			resp = s.fail(st, req, s.recordPanic("query", v))
		}
	}()
	tiers := []float64{req.Epsilon}
	if _, hasDeadline := ctx.Deadline(); (emit != nil || (req.AllowPartial && hasDeadline)) &&
		plan.ErrorDriven(req.Algorithm) {
		tiers = st.planner.Tiers(req.Epsilon)
	}
	var (
		best     *QueryResult
		bestTier float64       // the tier best was computed at
		lastDur  time.Duration // how long that tier took
	)
	for i, tier := range tiers {
		// Deadline checkpoint: before paying for a tighter tier, project
		// its cost from the last tier's measured latency scaled by the
		// cost model's growth ratio (×1.2 margin). A projection that
		// overshoots the remaining budget ships best-so-far now instead
		// of burning the remainder on work that cannot finish.
		if best != nil && req.AllowPartial {
			if dl, ok := ctx.Deadline(); ok {
				need := time.Duration(1.2 * float64(lastDur) * st.planner.Growth(req.Algorithm, bestTier, tier))
				if time.Until(dl) < need {
					s.partialResults.Add(1)
					return s.partial(st, req, best, bestTier)
				}
			}
		}
		q, err := s.querier(ctx, st, req.Algorithm, tier)
		start := time.Now()
		var res *QueryResult
		if err == nil {
			res, err = q.SingleSource(ctx, req.Source)
		}
		if err != nil {
			if best != nil && req.AllowPartial &&
				(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
				s.partialResults.Add(1)
				return s.partial(st, req, best, bestTier)
			}
			return s.fail(st, req, ToError(err))
		}
		lastDur = time.Since(start)
		st.planner.Observe(req.Algorithm, tier, lastDur)
		best, bestTier = res, tier
		if emit != nil && i < len(tiers)-1 {
			emit(s.partial(st, req, res, tier))
		}
	}
	return s.respond(st, req, best, false)
}

// partial is the answer of the tier completed short of req's target: a
// success-shaped answer flagged Partial with the error bound it actually
// met. It is both a stream's refinement record and, when a deadline cuts
// the ladder, the anytime contract's alternative to deadline_exceeded.
func (s *Service) partial(st *graphState, req Request, res *QueryResult, tier float64) Response {
	resp := s.respond(st, req, res, false)
	resp.Partial = true
	resp.AchievedEpsilon = st.planner.Effective(tier)
	return resp
}

// recordPanic converts a recovered panic value into the CodeInternal
// error the caller answers with, bumping the panics_recovered gauge and
// keeping the headline in last_panic. The full stack goes to the process
// log — it is operator material, too big (and too revealing) for a wire
// gauge.
func (s *Service) recordPanic(where string, v any) *Error {
	s.panics.Add(1)
	head := fmt.Sprintf("%s panic: %v", where, v)
	s.lastPanic.Store(&head)
	log.Printf("exactsim: recovered %s\n%s", head, debug.Stack())
	return Errorf(CodeInternal, "exactsim: recovered %s", head)
}

func (s *Service) respond(st *graphState, req Request, res *QueryResult, hit bool) Response {
	resp := Response{Request: req, Result: res, CacheHit: hit, GraphEpoch: st.epoch}
	if req.K > 0 {
		resp.TopK = TopKOf(res.Scores, req.K, req.Source)
	}
	return resp
}

func (s *Service) fail(st *graphState, req Request, err *Error) Response {
	return Response{Request: req, GraphEpoch: st.epoch, Err: err}
}

// querier returns st's shared querier for (algorithm, ε). The first
// request for a key leads its build, which runs under the service's
// lifetime context — deliberately NOT the request's: a short per-request
// deadline must not abort (and so force endless retries of) an index
// build that later requests need. Every request waits on the build under
// its own ctx, so a worker is released at its request's deadline even
// while the build continues. A failed build is forgotten, so a later
// request retries it.
func (s *Service) querier(ctx context.Context, st *graphState, algorithm string, epsilon float64) (Querier, error) {
	e, leader := st.queriers.claim(querierKey{algorithm: algorithm, epsilon: epsilon})
	if leader {
		go s.build(st, e)
	}
	b, _, err := e.wait(ctx)
	if err != nil {
		return nil, err
	}
	return b.q, b.err
}

// build constructs the querier e's key names over st's graph and
// finishes e, keeping it only when the build succeeded. Every querier of one
// generation shares that generation's diagonal sample index: queriers
// differing only in ε draw identical chunk streams, so one warm index
// serves them all.
func (s *Service) build(st *graphState, e *memoEntry[querierKey, built]) {
	var b built
	// The recover runs before finish, so the waiters of a panicked build
	// see its CodeInternal error, and the key is forgotten so a later
	// request can retry the build.
	defer func() {
		if v := recover(); v != nil {
			b = built{err: s.recordPanic("querier build", v)}
		}
		st.queriers.finish(e, b, b.err == nil)
	}()
	opts := append([]QuerierOption(nil), s.opts.QuerierOptions...)
	if e.key.epsilon != 0 {
		opts = append(opts, WithEpsilon(e.key.epsilon))
	}
	if st.diagIdx != nil {
		opts = append(opts, WithDiagIndex(st.diagIdx))
	}
	// ExactSim queriers borrow the workers' idle CPUs; the other
	// algorithms never read the field.
	opts = append(opts, func(cfg *algo.Config) { cfg.Lender = s.lender })
	b.q, b.err = NewQuerierCtx(s.buildCtx, e.key.algorithm, st.g, opts...)
}
