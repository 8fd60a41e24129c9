package exactsim_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/internal/algo"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/sparse"
)

// The test-stall algorithm parks every SingleSource on a gate channel so
// tests can hold the worker pool at a known saturation point. Executions
// are counted so tests can prove a rejected query never computed.
var (
	stallGate       chan struct{}
	stallGateMu     sync.Mutex
	stallExecutions atomic.Int64
	registerStall   sync.Once
)

const stallAlgName = "test-stall"

func setStallGate(ch chan struct{}) {
	stallGateMu.Lock()
	stallGate = ch
	stallGateMu.Unlock()
}

func currentStallGate() chan struct{} {
	stallGateMu.Lock()
	defer stallGateMu.Unlock()
	return stallGate
}

type stallQuerier struct{ g *graph.Graph }

func (q *stallQuerier) Name() string        { return stallAlgName }
func (q *stallQuerier) Graph() *graph.Graph { return q.g }

func (q *stallQuerier) SingleSource(ctx context.Context, source graph.NodeID) (*algo.Result, error) {
	stallExecutions.Add(1)
	if gate := currentStallGate(); gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	scores := make([]float64, q.g.N())
	scores[source] = 1
	return &algo.Result{Algorithm: stallAlgName, Scores: scores}, nil
}

func (q *stallQuerier) TopK(ctx context.Context, source graph.NodeID, k int) ([]sparse.Entry, *algo.Result, error) {
	res, err := q.SingleSource(ctx, source)
	if err != nil {
		return nil, nil, err
	}
	return sparse.TopK(res.Scores, k, source), res, nil
}

func registerStallAlgorithm() {
	registerStall.Do(func() {
		algo.Register(stallAlgName, func(ctx context.Context, g *graph.Graph, cfg algo.Config) (algo.Querier, error) {
			return &stallQuerier{g: g}, nil
		})
	})
}

// saturateService parks one query on the single worker, waits for it to
// start computing, then fills the queue with `depth` more — sequenced so
// no filler can race the worker's pop and get shed early. All parked
// queries ride the given priority and answer into done. The gate release
// is also a t.Cleanup, so a failing assertion can never deadlock Close
// behind a stalled worker.
func saturateService(t *testing.T, svc *exactsim.Service, pri exactsim.Priority, depth int) (done chan exactsim.Response, release func()) {
	t.Helper()
	gate := make(chan struct{})
	setStallGate(gate)
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			setStallGate(nil)
		})
	}
	t.Cleanup(release)
	done = make(chan exactsim.Response, depth+1)
	submit := func(src exactsim.NodeID) {
		go func() {
			done <- svc.Query(context.Background(), exactsim.Request{
				Algorithm: stallAlgName, Source: src, NoCache: true, Priority: pri})
		}()
	}
	waitFor := func(what string, ok func(exactsim.ServiceStats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := svc.Stats()
			if ok(st) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("service never reached %s: %+v", what, st)
			}
			time.Sleep(time.Millisecond)
		}
	}
	submit(0)
	waitFor("in-flight worker", func(st exactsim.ServiceStats) bool { return st.InFlight >= 1 })
	for i := 1; i <= depth; i++ {
		submit(exactsim.NodeID(i))
	}
	waitFor("full queue", func(st exactsim.ServiceStats) bool { return st.QueueDepth >= depth })
	return done, release
}

// TestServiceShedsWhenSaturated: a full queue answers the next submission
// promptly with a retryable unavailable carrying a retry_after_ms hint —
// it never blocks the submitter behind the backlog. Run under -race in
// the overload-smoke CI job.
func TestServiceShedsWhenSaturated(t *testing.T) {
	registerStallAlgorithm()
	g := exactsim.GenerateBarabasiAlbert(50, 3, 7)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers: 1, QueueDepth: 2, QueueTarget: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	done, release := saturateService(t, svc, exactsim.PriorityBackground, 2)
	defer release()

	start := time.Now()
	resp := svc.Query(context.Background(), exactsim.Request{
		Algorithm: stallAlgName, Source: 40, NoCache: true, Priority: exactsim.PriorityBackground})
	elapsed := time.Since(start)
	if resp.Err == nil {
		t.Fatal("saturated submission succeeded")
	}
	if resp.Err.Code != exactsim.CodeUnavailable {
		t.Fatalf("shed code = %q, want unavailable", resp.Err.Code)
	}
	if resp.Err.RetryAfterMillis <= 0 {
		t.Fatalf("shed response carries no retry_after_ms hint: %+v", resp.Err)
	}
	if got := exactsim.RetryAfter(resp.Err); got <= 0 {
		t.Fatalf("RetryAfter(err) = %v, want > 0", got)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("shed took %v — the submitter blocked behind the backlog", elapsed)
	}
	if st := svc.Stats(); st.ShedQueries == 0 {
		t.Fatalf("shed_queries = 0 after a shed: %+v", st)
	}

	release()
	for i := 0; i < 3; i++ {
		if r := <-done; r.Err != nil {
			t.Fatalf("parked query failed after release: %v", r.Err)
		}
	}
}

// TestServicePriorityEviction: when the queue is full of background
// work, an interactive arrival takes a slot — the newest background job
// is evicted with the shed error, and the interactive query completes.
func TestServicePriorityEviction(t *testing.T) {
	registerStallAlgorithm()
	g := exactsim.GenerateBarabasiAlbert(50, 3, 7)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers: 1, QueueDepth: 2, QueueTarget: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	done, release := saturateService(t, svc, exactsim.PriorityBackground, 2)
	defer release()

	interactive := make(chan exactsim.Response, 1)
	go func() {
		interactive <- svc.Query(context.Background(), exactsim.Request{
			Algorithm: stallAlgName, Source: 41, NoCache: true})
	}()

	// One parked background query loses its slot to the interactive
	// arrival: it answers unavailable while the worker still stalls.
	select {
	case r := <-done:
		if r.Err == nil || r.Err.Code != exactsim.CodeUnavailable {
			t.Fatalf("evicted background query: err = %v, want unavailable", r.Err)
		}
		if r.Err.RetryAfterMillis <= 0 {
			t.Fatalf("evicted response carries no retry hint: %+v", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no background query was evicted for the interactive arrival")
	}

	release()
	if r := <-interactive; r.Err != nil {
		t.Fatalf("interactive query failed: %v", r.Err)
	}
	for i := 0; i < 2; i++ {
		if r := <-done; r.Err != nil {
			t.Fatalf("surviving background query failed: %v", r.Err)
		}
	}
}

// TestServiceExpiredOnArrival: a query whose budget is spent before
// submission is answered deadline_exceeded without computing, and the
// deadline_rejected gauge counts it.
func TestServiceExpiredOnArrival(t *testing.T) {
	registerStallAlgorithm()
	g := exactsim.GenerateBarabasiAlbert(50, 3, 7)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	setStallGate(nil)

	before := stallExecutions.Load()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	resp := svc.Query(ctx, exactsim.Request{Algorithm: stallAlgName, Source: 1, NoCache: true})
	if resp.Err == nil || resp.Err.Code != exactsim.CodeDeadlineExceeded {
		t.Fatalf("expired query: err = %v, want deadline_exceeded", resp.Err)
	}
	if got := stallExecutions.Load(); got != before {
		t.Fatalf("expired query executed anyway (%d -> %d)", before, got)
	}
	if st := svc.Stats(); st.DeadlineRejected == 0 {
		t.Fatalf("deadline_rejected = 0 after an expired arrival: %+v", st)
	}
}

// TestServiceUnknownPriorityRejected: class names outside the taxonomy
// are invalid_argument, not silently mapped to a class.
func TestServiceUnknownPriorityRejected(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(50, 3, 7)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	resp := svc.Query(context.Background(), exactsim.Request{Source: 1, Priority: "urgent"})
	if resp.Err == nil || resp.Err.Code != exactsim.CodeInvalidArgument {
		t.Fatalf("unknown priority: err = %v, want invalid_argument", resp.Err)
	}
}

// TestServiceBrownoutDegrades: under the overload signal an AllowDegraded
// request runs a cheaper plan than it asked for, one step down the
// planner's ladder — the ε = 0 sentinel loosened to twice the service's
// base ε, and exactsim at an ε that cannot double within 0.1 stepped to
// prsim — with Response.Degraded set and counted; a request without the
// opt-in keeps its exact plan through the same overload.
func TestServiceBrownoutDegrades(t *testing.T) {
	registerStallAlgorithm()
	g := exactsim.GenerateBarabasiAlbert(60, 3, 7)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers: 1, QueueDepth: 1, QueueTarget: -1, QueueWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	tripOverload(t, svc)

	for _, tc := range []struct {
		eps     float64
		wantAlg string
		wantEps float64
	}{
		{0, "exactsim", 2 * algo.DefaultEpsilon},
		{0.08, "prsim", 0.08},
	} {
		opted := svc.Query(context.Background(), exactsim.Request{
			Algorithm: "exactsim", Source: 2, Epsilon: tc.eps, AllowDegraded: true})
		if opted.Err != nil {
			t.Fatalf("ε %v: degraded query failed: %v", tc.eps, opted.Err)
		}
		if !opted.Degraded {
			t.Fatalf("ε %v: overloaded AllowDegraded answer not marked degraded: %+v", tc.eps, opted)
		}
		if opted.Request.Algorithm != tc.wantAlg || opted.Request.Epsilon != tc.wantEps {
			t.Fatalf("ε %v: degraded plan = %s at ε %v, want %s at ε %v",
				tc.eps, opted.Request.Algorithm, opted.Request.Epsilon, tc.wantAlg, tc.wantEps)
		}
		if opted.Plan != nil {
			t.Fatalf("ε %v: a concrete request's answer carries a plan block %+v", tc.eps, *opted.Plan)
		}
	}
	if st := svc.Stats(); st.DegradedQueries != 2 {
		t.Fatalf("degraded_queries = %d after two degraded answers: %+v", st.DegradedQueries, st)
	}

	exact := svc.Query(context.Background(), exactsim.Request{
		Algorithm: "exactsim", Source: 3, NoCache: true})
	if exact.Err != nil {
		t.Fatalf("exact query failed: %v", exact.Err)
	}
	if exact.Degraded || exact.Request.Algorithm != "exactsim" || exact.Request.Epsilon != 0 {
		t.Fatalf("non-opted request altered under overload: %+v", exact.Request)
	}
}

// tripOverload raises svc's overload signal the way a real overload
// does: it saturates the single worker, sheds one more submission, then
// drains the pool. The signal holds for QueueWindow after the shed, so a
// service built with a window longer than the test keeps it up for
// every query that follows.
func tripOverload(t *testing.T, svc *exactsim.Service) {
	t.Helper()
	done, release := saturateService(t, svc, exactsim.PriorityBackground, 1)
	shed := svc.Query(context.Background(), exactsim.Request{
		Algorithm: stallAlgName, Source: 50, NoCache: true, Priority: exactsim.PriorityBackground})
	if shed.Err == nil || shed.Err.Code != exactsim.CodeUnavailable {
		t.Fatalf("priming shed: err = %v, want unavailable", shed.Err)
	}
	release()
	for i := 0; i < 2; i++ {
		<-done
	}
	if !svc.Stats().BrownoutActive {
		t.Fatal("overload signal not raised by a shed")
	}
}

// TestServiceOverloadLoosensEpsilon pins the only degraded traffic the
// repository benchmark sends (overload-churn-db's background class: a
// concrete exactsim request at ε 0.02 with allow_degraded). Under the
// overload signal it runs exactsim at ε 0.04, stamped Degraded and
// counted, and a repeat hits the 0.04 cache line; an exact answer
// already cached preempts the step; a request that did not opt into
// degraded answers is never substituted.
func TestServiceOverloadLoosensEpsilon(t *testing.T) {
	registerStallAlgorithm()
	g := exactsim.GenerateBarabasiAlbert(60, 3, 7)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers: 1, QueueDepth: 1, QueueTarget: -1, QueueWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	// The exact answer for source 3 is cached before the overload.
	if r := svc.Query(ctx, exactsim.Request{Algorithm: "exactsim", Source: 3, Epsilon: 0.02}); r.Err != nil {
		t.Fatal(r.Err)
	}
	tripOverload(t, svc)

	degradable := exactsim.Request{Algorithm: "exactsim", Source: 2, Epsilon: 0.02,
		Priority: exactsim.PriorityBackground, AllowDegraded: true}
	before := svc.Stats().DegradedQueries
	opted := svc.Query(ctx, degradable)
	if opted.Err != nil {
		t.Fatalf("degraded query failed: %v", opted.Err)
	}
	if !opted.Degraded || opted.CacheHit {
		t.Fatalf("overloaded request: degraded=%v hit=%v, want a degraded computation", opted.Degraded, opted.CacheHit)
	}
	if opted.Request.Algorithm != "exactsim" || opted.Request.Epsilon != 0.04 {
		t.Fatalf("ran %s at ε %v, want exactsim at the loosened 0.04", opted.Request.Algorithm, opted.Request.Epsilon)
	}
	if got := svc.Stats().DegradedQueries; got != before+1 {
		t.Fatalf("degraded_queries = %d, want %d", got, before+1)
	}
	repeat := svc.Query(ctx, degradable)
	if repeat.Err != nil || !repeat.CacheHit || !repeat.Degraded || repeat.Request.Epsilon != 0.04 {
		t.Fatalf("repeat: hit=%v degraded=%v ε=%v err=%v, want a degraded hit on the 0.04 line",
			repeat.CacheHit, repeat.Degraded, repeat.Request.Epsilon, repeat.Err)
	}

	degradable.Source = 3
	preempted := svc.Query(ctx, degradable)
	if preempted.Err != nil || !preempted.CacheHit || preempted.Degraded || preempted.Request.Epsilon != 0.02 {
		t.Fatalf("cached exact answer: hit=%v degraded=%v ε=%v err=%v, want the exact 0.02 hit",
			preempted.CacheHit, preempted.Degraded, preempted.Request.Epsilon, preempted.Err)
	}

	partial := svc.Query(ctx, exactsim.Request{Algorithm: "exactsim", Source: 4, Epsilon: 0.02,
		NoCache: true, AllowPartial: true})
	if partial.Err != nil || partial.Degraded || partial.Request.Algorithm != "exactsim" || partial.Request.Epsilon != 0.02 {
		t.Fatalf("allow_partial request substituted under overload: %+v err=%v", partial.Request, partial.Err)
	}
	strict := svc.Query(ctx, exactsim.Request{Algorithm: exactsim.AlgorithmAuto, Source: 5, Epsilon: 0.02, NoCache: true})
	if strict.Err != nil {
		t.Fatal(strict.Err)
	}
	want := exactsim.PlanInfo{Algorithm: "exactsim", EffectiveEpsilon: 0.02, Reason: "small-graph-default"}
	if strict.Degraded || strict.Plan == nil || *strict.Plan != want ||
		strict.Request.Algorithm != "exactsim" || strict.Request.Epsilon != 0.02 {
		t.Fatalf("strict auto request under overload: plan %+v request %+v degraded=%v, want %+v unstamped",
			strict.Plan, strict.Request, strict.Degraded, want)
	}
	if !svc.Stats().BrownoutActive {
		t.Fatal("overload signal decayed mid-test; the unsubstituted answers above prove nothing")
	}
}

// TestServiceOverloadPlanNamesWhatRan: an "auto" request with
// allow_degraded, answered under the overload signal, carries a plan
// block naming the method and effective ε that actually ran, with the
// overload reason. The ε = 0 sentinel loosens too: to twice the
// service's base ε.
func TestServiceOverloadPlanNamesWhatRan(t *testing.T) {
	registerStallAlgorithm()
	g := exactsim.GenerateBarabasiAlbert(60, 3, 7)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers: 1, QueueDepth: 1, QueueTarget: -1, QueueWindow: time.Hour,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.01)}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	tripOverload(t, svc)

	for _, tc := range []struct{ eps, ran float64 }{{0, 0.02}, {0.05, 0.1}} {
		r := svc.Query(context.Background(), exactsim.Request{Algorithm: exactsim.AlgorithmAuto,
			Source: 2, Epsilon: tc.eps, NoCache: true, AllowDegraded: true})
		if r.Err != nil {
			t.Fatalf("ε %v: %v", tc.eps, r.Err)
		}
		want := exactsim.PlanInfo{Algorithm: "exactsim", EffectiveEpsilon: tc.ran, Reason: "overload-loosen"}
		if r.Plan == nil || *r.Plan != want {
			t.Fatalf("ε %v: plan %+v, want %+v", tc.eps, r.Plan, want)
		}
		if r.Request.Algorithm != r.Plan.Algorithm || r.Request.Epsilon != r.Plan.EffectiveEpsilon || !r.Degraded {
			t.Fatalf("ε %v: ran %s at ε %v (degraded=%v), plan says %+v",
				tc.eps, r.Request.Algorithm, r.Request.Epsilon, r.Degraded, *r.Plan)
		}
	}
}

// TestServiceBatchExpiredAnsweredLocally: a batch whose context dies
// mid-submission answers the remaining entries in place with the
// context's code — none of them reach the pool.
func TestServiceBatchExpiredAnsweredLocally(t *testing.T) {
	registerStallAlgorithm()
	g := exactsim.GenerateBarabasiAlbert(50, 3, 7)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	setStallGate(nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]exactsim.Request, 8)
	for i := range reqs {
		reqs[i] = exactsim.Request{Algorithm: stallAlgName, Source: exactsim.NodeID(i), NoCache: true}
	}
	before := stallExecutions.Load()
	out := svc.Batch(ctx, reqs)
	if got := stallExecutions.Load(); got != before {
		t.Fatalf("cancelled batch executed %d queries", got-before)
	}
	for i, r := range out {
		if r.Err == nil || r.Err.Code != exactsim.CodeCanceled {
			t.Fatalf("batch[%d]: err = %v, want canceled", i, r.Err)
		}
	}
}

// lateTimerCtx is a context whose deadline has passed on the wall clock
// while its timer has not fired yet: Err stays nil, as it does for the
// milliseconds a loaded scheduler runs a context's timer late.
type lateTimerCtx struct{ context.Context }

func (lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestServiceExpiredOnArrivalLateTimer: the admission rule reads the
// deadline on the wall clock, not only ctx.Err(). A query whose deadline
// has passed while its context's timer has not fired is answered
// deadline_exceeded without computing, and deadline_rejected counts it.
func TestServiceExpiredOnArrivalLateTimer(t *testing.T) {
	registerStallAlgorithm()
	g := exactsim.GenerateBarabasiAlbert(50, 3, 7)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	setStallGate(nil)

	before := stallExecutions.Load()
	resp := svc.Query(lateTimerCtx{context.Background()},
		exactsim.Request{Algorithm: stallAlgName, Source: 1, NoCache: true})
	if resp.Err == nil || resp.Err.Code != exactsim.CodeDeadlineExceeded {
		t.Fatalf("late-timer query: err = %v, want deadline_exceeded", resp.Err)
	}
	if got := stallExecutions.Load(); got != before {
		t.Fatalf("late-timer query executed anyway (%d -> %d)", before, got)
	}
	if st := svc.Stats(); st.DeadlineRejected != 1 || st.Queriers != 0 {
		t.Fatalf("deadline_rejected = %d, queriers = %d, want 1 and 0", st.DeadlineRejected, st.Queriers)
	}
}

// TestServiceShedAtDoorMessage: a submission the full queue turns away
// at the door, and a queued job an interactive arrival evicts, both
// answer with the shed message naming their class.
func TestServiceShedAtDoorMessage(t *testing.T) {
	registerStallAlgorithm()
	g := exactsim.GenerateBarabasiAlbert(50, 3, 7)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers: 1, QueueDepth: 1, QueueTarget: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	done, release := saturateService(t, svc, exactsim.PriorityBatch, 1)
	defer release()
	const want = "exactsim: batch query shed: queue full"
	door := svc.Query(context.Background(), exactsim.Request{
		Algorithm: stallAlgName, Source: 40, NoCache: true, Priority: exactsim.PriorityBatch})
	if door.Err == nil || door.Err.Code != exactsim.CodeUnavailable || door.Err.Message != want {
		t.Fatalf("door shed: err = %+v, want unavailable %q", door.Err, want)
	}
	interactive := make(chan exactsim.Response, 1)
	go func() {
		interactive <- svc.Query(context.Background(), exactsim.Request{
			Algorithm: stallAlgName, Source: 41, NoCache: true})
	}()
	select {
	case r := <-done:
		if r.Err == nil || r.Err.Code != exactsim.CodeUnavailable || r.Err.Message != want {
			t.Fatalf("evicted job: err = %+v, want unavailable %q", r.Err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no batch query was evicted for the interactive arrival")
	}
	release()
	if r := <-interactive; r.Err != nil {
		t.Fatalf("interactive query failed: %v", r.Err)
	}
	if r := <-done; r.Err != nil {
		t.Fatalf("running batch query failed: %v", r.Err)
	}
}

// TestServiceBatchCancelledWhileWaiting: a batch whose context is
// cancelled while a submission waits for a slot answers the tail
// canceled in place and runs none of it. The one request that held the
// only slot had started computing; it ends canceled too.
func TestServiceBatchCancelledWhileWaiting(t *testing.T) {
	registerStallAlgorithm()
	g := exactsim.GenerateBarabasiAlbert(50, 3, 7)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	gate := make(chan struct{})
	setStallGate(gate)
	t.Cleanup(func() { setStallGate(nil) })

	reqs := make([]exactsim.Request, 8)
	for i := range reqs {
		reqs[i] = exactsim.Request{Algorithm: stallAlgName, Source: exactsim.NodeID(i), NoCache: true}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := stallExecutions.Load()
	out := make(chan []exactsim.Response, 1)
	go func() { out <- svc.Batch(ctx, reqs) }()
	deadline := time.Now().Add(5 * time.Second)
	for stallExecutions.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("the batch's first request never started computing")
		}
		time.Sleep(time.Millisecond)
	}
	// The first request holds the batch's only slot, so the second waits.
	time.Sleep(20 * time.Millisecond)
	cancel()
	var resps []exactsim.Response
	select {
	case resps = <-out:
	case <-time.After(5 * time.Second):
		t.Fatal("a cancelled batch did not return")
	}
	if got := stallExecutions.Load() - before; got != 1 {
		t.Fatalf("cancelled batch executed %d queries, want only the first", got)
	}
	for i, r := range resps {
		if r.Err == nil || r.Err.Code != exactsim.CodeCanceled {
			t.Fatalf("batch[%d]: err = %v, want canceled", i, r.Err)
		}
		if r.Request.Source != reqs[i].Source {
			t.Fatalf("batch[%d] answers source %d, want %d", i, r.Request.Source, reqs[i].Source)
		}
	}
	if st := svc.Stats(); st.Queries != int64(len(reqs)) || st.Errors != int64(len(reqs)) {
		t.Fatalf("counters: queries=%d errors=%d, want %d each", st.Queries, st.Errors, len(reqs))
	}
}
