package exactsim

import (
	"context"
	"math"
	"testing"
	"time"
)

// newPlanService builds a service over g with a pinned seed so replicas
// (and repeated runs) answer bit-identically.
func newPlanService(t *testing.T, g *Graph, opts ...QuerierOption) *Service {
	t.Helper()
	if opts == nil {
		opts = []QuerierOption{WithEpsilon(0.01), WithSeed(1)}
	}
	svc, err := NewService(g, ServiceOptions{Workers: 2, QuerierOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// ringGraph builds a directed n-cycle: the flattest possible degree
// sequence (every in-degree 1), which above the planner's size gate
// exercises the large-flat → probesim route.
func ringGraph(n int) *Graph {
	b := NewGraphBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(NodeID(v), NodeID((v+1)%n))
	}
	return b.Build()
}

// sameScores asserts bit-identical score vectors — the conformance
// contract is byte-for-byte, not approximately-equal.
func sameScores(t *testing.T, a, b *QueryResult) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("nil result: %v vs %v", a, b)
	}
	if len(a.Scores) != len(b.Scores) {
		t.Fatalf("score lengths differ: %d vs %d", len(a.Scores), len(b.Scores))
	}
	for i := range a.Scores {
		if math.Float64bits(a.Scores[i]) != math.Float64bits(b.Scores[i]) {
			t.Fatalf("scores diverge at %d: %x vs %x", i,
				math.Float64bits(a.Scores[i]), math.Float64bits(b.Scores[i]))
		}
	}
}

// TestAutoConformance: for every strict planner route reachable on a
// real graph, "auto" must answer byte-for-byte what explicitly asking
// for the planned method would — the determinism carve-out that keeps
// planned requests hedgeable and cacheable under the planned key.
func TestAutoConformance(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name       string
		graph      *Graph
		req        Request
		wantMethod string
		wantReason string
	}{
		{"small-default", GenerateBarabasiAlbert(400, 3, 5),
			Request{Source: 7, K: 5}, "exactsim", "small-graph-default"},
		{"small-explicit-auto", GenerateBarabasiAlbert(400, 3, 5),
			Request{Algorithm: AlgorithmAuto, Source: 7, Epsilon: 0.05}, "exactsim", "small-graph-default"},
		{"tight-epsilon", GenerateBarabasiAlbert(400, 3, 5),
			Request{Source: 7, Epsilon: 0.002}, "exactsim", "tight-epsilon"},
		{"large-flat", ringGraph(60_000),
			Request{Source: 42, Epsilon: 0.05}, "probesim", "large-flat"},
		{"large-power-law", GenerateBarabasiAlbert(60_000, 3, 5),
			Request{Source: 42, Epsilon: 0.05}, "prsim", "large-power-law"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := newPlanService(t, tc.graph)

			auto := tc.req
			auto.Algorithm = AlgorithmAuto
			auto.NoCache = true
			ra := svc.Query(ctx, auto)
			if ra.Err != nil {
				t.Fatal(ra.Err)
			}
			if ra.Plan == nil {
				t.Fatal("auto response carries no Plan block")
			}
			if ra.Plan.Algorithm != tc.wantMethod || ra.Plan.Reason != tc.wantReason {
				t.Fatalf("planned %s (%s), want %s (%s)",
					ra.Plan.Algorithm, ra.Plan.Reason, tc.wantMethod, tc.wantReason)
			}
			if ra.Request.Algorithm != tc.wantMethod {
				t.Fatalf("echoed request algorithm %q, want the planned %q",
					ra.Request.Algorithm, tc.wantMethod)
			}

			explicit := tc.req
			explicit.Algorithm = tc.wantMethod
			explicit.NoCache = true
			re := svc.Query(ctx, explicit)
			if re.Err != nil {
				t.Fatal(re.Err)
			}
			sameScores(t, ra.Result, re.Result)

			// Cache identity: an auto answer lives under the planned key,
			// so the explicit method's next query is a hit.
			cached := tc.req
			cached.Algorithm = AlgorithmAuto
			if r := svc.Query(ctx, cached); r.Err != nil {
				t.Fatal(r.Err)
			}
			cached.Algorithm = tc.wantMethod
			if r := svc.Query(ctx, cached); r.Err != nil || !r.CacheHit {
				t.Fatalf("explicit query after auto: hit=%v err=%v — planned and explicit keys diverged",
					r.CacheHit, r.Err)
			}
		})
	}
}

// TestAutoDefaultAlgorithm: the service default is "auto" when no
// DefaultAlgorithm is configured, empty-algorithm requests route through
// the planner, and the AutoPlanned stat counts them.
func TestAutoDefaultAlgorithm(t *testing.T) {
	svc := newPlanService(t, GenerateBarabasiAlbert(300, 3, 9))
	if got := svc.DefaultAlgorithm(); got != AlgorithmAuto {
		t.Fatalf("DefaultAlgorithm() = %q, want %q", got, AlgorithmAuto)
	}
	r := svc.Query(context.Background(), Request{Source: 3})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Plan == nil {
		t.Fatal("empty-algorithm request carries no Plan block")
	}
	if st := svc.Stats(); st.AutoPlanned != 1 {
		t.Fatalf("AutoPlanned = %d, want 1", st.AutoPlanned)
	}
	// Pinning a concrete default restores the old behavior: no planning.
	svc2, err := NewService(GenerateBarabasiAlbert(300, 3, 9), ServiceOptions{
		Workers: 1, DefaultAlgorithm: "probesim",
		QuerierOptions: []QuerierOption{WithEpsilon(0.05), WithSeed(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	r = svc2.Query(context.Background(), Request{Source: 3})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Plan != nil {
		t.Fatalf("pinned-default request planned anyway: %+v", r.Plan)
	}
	if r.Request.Algorithm != "probesim" {
		t.Fatalf("defaulted algorithm %q", r.Request.Algorithm)
	}
}

// TestRequestNormalization: every malformed field is rejected at the
// Service boundary with the coded error, uniformly for Query and Batch.
func TestRequestNormalization(t *testing.T) {
	svc := newPlanService(t, GenerateBarabasiAlbert(100, 3, 3))
	ctx := context.Background()
	cases := []struct {
		name string
		req  Request
		want ErrorCode
	}{
		{"negative-k", Request{Source: 1, K: -1}, CodeInvalidArgument},
		{"negative-epsilon", Request{Source: 1, Epsilon: -0.5}, CodeInvalidArgument},
		{"epsilon-one", Request{Source: 1, Epsilon: 1}, CodeInvalidArgument},
		{"epsilon-above-one", Request{Source: 1, Epsilon: 2}, CodeInvalidArgument},
		{"epsilon-nan", Request{Source: 1, Epsilon: math.NaN()}, CodeInvalidArgument},
		{"epsilon-inf", Request{Source: 1, Epsilon: math.Inf(1)}, CodeInvalidArgument},
		{"unknown-priority", Request{Source: 1, Priority: "urgent"}, CodeInvalidArgument},
		{"negative-source", Request{Source: -1}, CodeInvalidArgument},
		{"source-out-of-range", Request{Source: 100}, CodeInvalidArgument},
		{"unknown-algorithm", Request{Source: 1, Algorithm: "nope"}, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := svc.Query(ctx, tc.req)
			if r.Err == nil || r.Err.Code != tc.want {
				t.Fatalf("Query(%+v).Err = %v, want code %s", tc.req, r.Err, tc.want)
			}
			// The same screen answers on the batch path.
			resps := svc.Batch(ctx, []Request{tc.req})
			if resps[0].Err == nil || resps[0].Err.Code != tc.want {
				t.Fatalf("Batch(%+v).Err = %v, want code %s", tc.req, resps[0].Err, tc.want)
			}
		})
	}
	// The screens reject before any worker dispatch, so a valid request
	// still flows afterward.
	if r := svc.Query(ctx, Request{Source: 1}); r.Err != nil {
		t.Fatalf("valid request after rejections: %v", r.Err)
	}
}

// TestPartialBestSoFar: an opted-in request whose deadline cannot afford
// its target accuracy gets the best completed tier — Partial, Err nil,
// with the achieved error bound — never a bare deadline_exceeded.
func TestPartialBestSoFar(t *testing.T) {
	svc := newPlanService(t, GenerateBarabasiAlbert(200, 3, 11))

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	// ε=2.5e-4 = 0.064/4⁴, so the ladder starts at its cheapest possible
	// rung (0.064: ~15ms here, ~330ms race-instrumented — always inside
	// the budget) while the terminal rung alone costs about the whole
	// budget and the full ladder roughly twice it, so the checkpoint
	// always bails mid-ladder. The planner's clamp-bounded estimate for
	// the target stays under the budget, so the request is planned at
	// face value and the deadline bites during execution.
	req := Request{Source: 5, Epsilon: 2.5e-4, AllowPartial: true}
	r := svc.Query(ctx, req)
	if r.Err != nil {
		t.Fatalf("opted-in deadline query returned an error: %v", r.Err)
	}
	if !r.Partial {
		t.Fatalf("response not Partial: %+v", r)
	}
	if r.AchievedEpsilon <= 2.5e-4 || r.AchievedEpsilon > 0.064 {
		t.Fatalf("AchievedEpsilon %g outside the ladder", r.AchievedEpsilon)
	}
	if r.Result == nil || len(r.Result.Scores) == 0 {
		t.Fatal("partial response carries no result")
	}
	if st := svc.Stats(); st.PartialResults != 1 {
		t.Fatalf("PartialResults = %d, want 1", st.PartialResults)
	}

	// The determinism carve-out: without the opt-in the same request gets
	// the strict contract — target accuracy or the coded deadline error.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel2()
	r2 := svc.Query(ctx2, Request{Source: 6, Epsilon: 1e-6})
	if r2.Err == nil || r2.Err.Code != CodeDeadlineExceeded {
		t.Fatalf("strict deadline query: %+v, want deadline_exceeded", r2.Err)
	}
	if r2.Partial || r2.Result != nil {
		t.Fatalf("strict request answered partially: %+v", r2)
	}
}

// TestAutoDeadlineFitStampsDegraded: an "auto" plan the deadline fit
// substituted is stamped Degraded beside its deadline reason, and its
// plan block names the plan that ran. At ε = 1e-6 exactsim's estimate is
// at least 10s even at the microprobe's fastest clamp, so a 50ms budget
// always forces a step; whether the substitute then beats the deadline
// does not matter to the stamp. A cached answer to the strict plan
// preempts the fit.
func TestAutoDeadlineFitStampsDegraded(t *testing.T) {
	svc := newPlanService(t, GenerateBarabasiAlbert(60, 3, 7))
	// Calibrate the planner first, so the budget is all the request's.
	warm := svc.Query(context.Background(), Request{Source: 4, Epsilon: 0.05})
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	// Stand in for a strict answer at ε = 1e-6, too costly to compute here.
	svc.state.Load().answers.put(answerKey{algorithm: "exactsim", source: 6, epsilon: 1e-6}, warm.Result)
	hit := svc.Query(ctx, Request{Source: 6, Epsilon: 1e-6, AllowPartial: true})
	want := PlanInfo{Algorithm: "exactsim", EffectiveEpsilon: 1e-6, Reason: "tight-epsilon"}
	if !hit.CacheHit || hit.Degraded || hit.Plan == nil || *hit.Plan != want {
		t.Fatalf("cached strict answer: hit=%v degraded=%v plan %+v, want a hit planned %+v",
			hit.CacheHit, hit.Degraded, hit.Plan, want)
	}

	r := svc.Query(ctx, Request{Source: 5, Epsilon: 1e-6, NoCache: true, AllowPartial: true})
	if r.Plan == nil {
		t.Fatal("auto response carries no Plan block")
	}
	if r.Plan.Reason != "deadline-loosen" && r.Plan.Reason != "deadline-downgrade" {
		t.Fatalf("plan %+v, want a deadline reason", *r.Plan)
	}
	if !r.Degraded {
		t.Fatalf("deadline-fitted answer not stamped degraded: plan %+v", *r.Plan)
	}
	if r.Request.Algorithm != r.Plan.Algorithm || r.Request.Epsilon != r.Plan.EffectiveEpsilon {
		t.Fatalf("ran %s at ε %v, plan says %+v", r.Request.Algorithm, r.Request.Epsilon, *r.Plan)
	}
}

// TestPartialNeverCached: a best-so-far tier must not poison the cache —
// the next caller with budget deserves the full answer.
func TestPartialNeverCached(t *testing.T) {
	svc := newPlanService(t, GenerateBarabasiAlbert(200, 3, 11))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	// ε=1e-3: the coarse rungs always beat the deadline, the terminal
	// rung's checkpoint estimate never fits what remains (see
	// TestPartialBestSoFar for the margin argument) — but an unbounded
	// retry completes in seconds.
	r := svc.Query(ctx, Request{Source: 5, Epsilon: 1e-3, AllowPartial: true})
	cancel()
	if r.Err != nil || !r.Partial {
		t.Fatalf("setup: want a partial answer, got %+v err=%v", r, r.Err)
	}
	// Unbounded retry of the same key: must compute fresh, not hit.
	full := svc.Query(context.Background(), Request{Source: 5, Epsilon: 1e-3})
	if full.Err != nil {
		t.Fatal(full.Err)
	}
	if full.CacheHit || full.Partial {
		t.Fatalf("full retry served the partial tier: hit=%v partial=%v", full.CacheHit, full.Partial)
	}
}

// TestQueryStreamFinalMatchesQuery: the stream's terminal record is
// byte-for-byte the non-streaming answer, refinements arrive
// coarse→tight and are all flagged Partial.
func TestQueryStreamFinalMatchesQuery(t *testing.T) {
	svc := newPlanService(t, GenerateBarabasiAlbert(300, 3, 13))
	ctx := context.Background()
	req := Request{Source: 8, Epsilon: 0.001, K: 5}

	var refinements []Response
	final := svc.QueryStream(ctx, req, func(r Response) { refinements = append(refinements, r) })
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	if final.Partial {
		t.Fatal("terminal record flagged Partial")
	}
	if len(refinements) == 0 {
		t.Fatal("no refinements emitted for a multi-tier ladder")
	}
	prev := math.Inf(1)
	for i, ref := range refinements {
		if !ref.Partial {
			t.Fatalf("refinement %d not flagged Partial: %+v", i, ref)
		}
		if ref.AchievedEpsilon <= 0 || ref.AchievedEpsilon >= prev {
			t.Fatalf("refinement %d epsilon %g not tightening (prev %g)", i, ref.AchievedEpsilon, prev)
		}
		prev = ref.AchievedEpsilon
		if ref.Result == nil {
			t.Fatalf("refinement %d carries no result", i)
		}
	}

	// Byte-for-byte identity with the plain query path (fresh service so
	// neither run sees the other's cache).
	svc2 := newPlanService(t, GenerateBarabasiAlbert(300, 3, 13))
	plain := svc2.Query(ctx, req)
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	sameScores(t, final.Result, plain.Result)
	if len(final.TopK) != len(plain.TopK) {
		t.Fatalf("top-k lengths differ: %d vs %d", len(final.TopK), len(plain.TopK))
	}
	for i := range final.TopK {
		if final.TopK[i] != plain.TopK[i] {
			t.Fatalf("top-k[%d] differs: %+v vs %+v", i, final.TopK[i], plain.TopK[i])
		}
	}

	// The stream's final tier fills the cache under the same key the
	// plain path uses.
	if r := svc.Query(ctx, req); r.Err != nil || !r.CacheHit {
		t.Fatalf("query after stream: hit=%v err=%v", r.CacheHit, r.Err)
	}
}

// TestQueryStreamOneRung: an exactsim stream whose target is at or above
// the ladder's coarsest rung (0.064) runs a one-rung ladder: it emits no
// refinement, its terminal record is what Query answers, and it fills
// the memo under the plain path's key.
func TestQueryStreamOneRung(t *testing.T) {
	ctx := context.Background()
	req := Request{Algorithm: "exactsim", Source: 8, Epsilon: 0.08, K: 5}
	svc := newPlanService(t, GenerateBarabasiAlbert(300, 3, 13))
	calls := 0
	final := svc.QueryStream(ctx, req, func(Response) { calls++ })
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	if calls != 0 || final.Partial || final.CacheHit {
		t.Fatalf("one-rung stream: %d refinements, partial=%v hit=%v, want 0, false, false",
			calls, final.Partial, final.CacheHit)
	}
	plain := newPlanService(t, GenerateBarabasiAlbert(300, 3, 13)).Query(ctx, req)
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	sameScores(t, final.Result, plain.Result)
	if len(final.TopK) != len(plain.TopK) {
		t.Fatalf("top-k lengths differ: %d vs %d", len(final.TopK), len(plain.TopK))
	}
	for i := range final.TopK {
		if final.TopK[i] != plain.TopK[i] {
			t.Fatalf("top-k[%d] differs: %+v vs %+v", i, final.TopK[i], plain.TopK[i])
		}
	}
	if r := svc.Query(ctx, req); r.Err != nil || !r.CacheHit {
		t.Fatalf("query after a one-rung stream: hit=%v err=%v", r.CacheHit, r.Err)
	}
}

// TestQueryStreamNonLadderAlgorithm: a stream for a method the ladder
// does not apply to (ε-independent cost) degenerates gracefully — no
// refinements, just the terminal answer.
func TestQueryStreamNonLadderAlgorithm(t *testing.T) {
	svc := newPlanService(t, GenerateBarabasiAlbert(200, 3, 17))
	calls := 0
	final := svc.QueryStream(context.Background(),
		Request{Algorithm: "mc", Source: 4},
		func(Response) { calls++ })
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	if calls != 0 {
		t.Fatalf("mc stream emitted %d refinements, want 0", calls)
	}
	if final.Result == nil {
		t.Fatal("no terminal result")
	}
}

// TestPlanEstimates: the capability surface the HTTP layer serves —
// one calibrated cost row per built-in method the planner costs. Not per
// registry name: other tests register fake algorithms in the same
// process, so the registry grows under -count > 1.
func TestPlanEstimates(t *testing.T) {
	svc := newPlanService(t, GenerateBarabasiAlbert(200, 3, 19))
	ests := svc.PlanEstimates()
	if len(ests) != len(AlgorithmCaps()) {
		t.Fatalf("PlanEstimates() returned %d rows, want %d", len(ests), len(AlgorithmCaps()))
	}
	for _, e := range ests {
		if e.Units <= 0 || e.Nanos <= 0 {
			t.Fatalf("degenerate estimate: %+v", e)
		}
		caps, ok := DescribeAlgorithm(e.Name)
		if !ok {
			t.Fatalf("estimate for %q has no capability entry", e.Name)
		}
		if caps.Name != e.Name {
			t.Fatalf("caps name %q != estimate name %q", caps.Name, e.Name)
		}
	}
}

// TestComputedQueryFeedsPlanner: a plain computed query, one that is
// neither a stream nor anytime, feeds its latency to the planner's
// correction, so the exactsim cost row moves; the same query's cache hit
// computes nothing and leaves the row where it was.
func TestComputedQueryFeedsPlanner(t *testing.T) {
	svc := newPlanService(t, GenerateBarabasiAlbert(200, 3, 19))
	nanos := func() int64 {
		t.Helper()
		for _, e := range svc.PlanEstimates() {
			if e.Name == "exactsim" {
				return e.Nanos
			}
		}
		t.Fatal("no exactsim cost row")
		return 0
	}
	req := Request{Algorithm: "exactsim", Source: 3}
	before := nanos()
	if r := svc.Query(context.Background(), req); r.Err != nil || r.CacheHit {
		t.Fatalf("computed query: hit=%v err=%v", r.CacheHit, r.Err)
	}
	computed := nanos()
	if computed == before {
		t.Fatalf("exactsim cost row stayed at %d ns after a computed query", before)
	}
	if r := svc.Query(context.Background(), req); r.Err != nil || !r.CacheHit {
		t.Fatalf("repeat query: hit=%v err=%v, want a hit", r.CacheHit, r.Err)
	}
	if hit := nanos(); hit != computed {
		t.Fatalf("exactsim cost row moved %d -> %d on a cache hit", computed, hit)
	}
}
