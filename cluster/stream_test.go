package cluster_test

import (
	"context"
	"math"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/cluster"
	"github.com/exactsim/exactsim/httpapi"
)

// TestRouterQueryStream: a stream routed through the fleet forwards
// every tier refinement and ends with a terminal answer bit-identical
// to the plain routed query.
func TestRouterQueryStream(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(250, 3, 42)
	svcOpts := exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.05), exactsim.WithSeed(1)},
	}
	_, urls := startFleet(t, g, 3, svcOpts)
	r, err := cluster.New(urls, manualPollOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	r.Poll(ctx)

	req := exactsim.Request{Source: 8, Epsilon: 0.001, K: 5, NoCache: true}
	var refinements []exactsim.Response
	final := r.QueryStream(ctx, req, func(res exactsim.Response) { refinements = append(refinements, res) })
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	if final.Partial {
		t.Fatal("terminal record flagged Partial")
	}
	if len(refinements) == 0 {
		t.Fatal("no refinements forwarded through the router")
	}
	prev := math.Inf(1)
	for i, ref := range refinements {
		if !ref.Partial || ref.AchievedEpsilon <= 0 {
			t.Fatalf("refinement %d not a tier record: %+v", i, ref)
		}
		if ref.AchievedEpsilon >= prev {
			t.Fatalf("refinement %d did not tighten: %g then %g", i, prev, ref.AchievedEpsilon)
		}
		prev = ref.AchievedEpsilon
	}

	plain := r.Query(ctx, req)
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	if len(final.Result.Scores) != len(plain.Result.Scores) {
		t.Fatalf("score lengths differ: %d vs %d", len(final.Result.Scores), len(plain.Result.Scores))
	}
	for i := range final.Result.Scores {
		if math.Float64bits(final.Result.Scores[i]) != math.Float64bits(plain.Result.Scores[i]) {
			t.Fatalf("routed stream and routed query diverge at %d", i)
		}
	}
}

// streamFleet boots n replicas of the stream tests' graph behind a
// manually polled router.
func streamFleet(t *testing.T, n int, opts cluster.Options) ([]*member, *cluster.Router) {
	t.Helper()
	g := exactsim.GenerateBarabasiAlbert(250, 3, 42)
	svcOpts := exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.05), exactsim.WithSeed(1)},
	}
	members, urls := startFleet(t, g, n, svcOpts)
	r, err := cluster.New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return members, r
}

// TestRouterStreamFailoverBeforeFirstRecord: a stream whose ring owner
// refuses before any record moves to the next candidate, and its final
// record is bit-identical to the plain query the other replica serves.
func TestRouterStreamFailoverBeforeFirstRecord(t *testing.T) {
	members, r := streamFleet(t, 2, manualPollOptions())
	ctx := context.Background()
	req := exactsim.Request{Source: 8, Epsilon: 0.016, K: 5, NoCache: true}
	// The ring owner is the replica that serves a probe while the latency
	// tracker is cold: no hedge can fire, so exactly one replica answers.
	if resp := r.Query(ctx, exactsim.Request{Source: req.Source}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	owner := 0
	if members[1].svc.Stats().Queries > 0 {
		owner = 1
	}
	// Down at the gate only: membership still holds it healthy (no poll
	// runs), so the router picks it first and must fail over.
	members[owner].gate.down.Store(true)

	retries := r.Stats().Retries
	records := 0
	final := r.QueryStream(ctx, req, func(exactsim.Response) { records++ })
	if final.Err != nil {
		t.Fatalf("stream did not fail over: %v", final.Err)
	}
	if got := r.Stats().Retries - retries; got != 1 {
		t.Fatalf("retries rose by %d, want 1", got)
	}
	if records == 0 {
		t.Fatal("no refinements from the surviving replica")
	}

	other := members[1-owner].svc.Stats().Queries
	plain := r.Query(ctx, req)
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	if members[1-owner].svc.Stats().Queries == other {
		t.Fatal("the plain query was not served by the surviving replica")
	}
	if len(final.Result.Scores) != len(plain.Result.Scores) {
		t.Fatalf("score lengths differ: %d vs %d", len(final.Result.Scores), len(plain.Result.Scores))
	}
	for i := range final.Result.Scores {
		if math.Float64bits(final.Result.Scores[i]) != math.Float64bits(plain.Result.Scores[i]) {
			t.Fatalf("failed-over stream and plain query diverge at %d", i)
		}
	}
}

// TestRouterStreamNoReplayAfterRecord: once a record has reached emit, a
// replica dying mid-stream ends the stream with a coded unavailable; the
// ladder is not replayed on another replica.
func TestRouterStreamNoReplayAfterRecord(t *testing.T) {
	members, r := streamFleet(t, 2, manualPollOptions())
	// Every replica cuts, so a replay would show up as a second record.
	for _, m := range members {
		m.gate.cutStream.Store(true)
	}
	retries := r.Stats().Retries
	var got []exactsim.Response
	final := r.QueryStream(context.Background(),
		exactsim.Request{Source: 8, Epsilon: 0.001, K: 5, NoCache: true},
		func(rec exactsim.Response) { got = append(got, rec) })
	if final.Err == nil || final.Err.Code != exactsim.CodeUnavailable {
		t.Fatalf("cut stream answered %+v, want a coded unavailable", final.Err)
	}
	if len(got) != 1 || !got[0].Partial || got[0].AchievedEpsilon != cutRecord.AchievedEpsilon {
		t.Fatalf("emit saw %d records (%+v), want exactly the one before the cut", len(got), got)
	}
	if d := r.Stats().Retries - retries; d != 0 {
		t.Fatalf("retries rose by %d after a record was out", d)
	}
}

// TestRouterStreamNeverHedged: a straggling stream rides out alone with
// a warm tracker; it neither launches a hedge nor touches the hedge
// budget.
func TestRouterStreamNeverHedged(t *testing.T) {
	opts := manualPollOptions()
	opts.HedgeMinDelay = 2 * time.Millisecond
	opts.HedgeQuantile = 0.5
	members, r := streamFleet(t, 2, opts)
	ctx := context.Background()
	// Warm the tracker past its sample gate, mostly on cache hits.
	for i := 0; i < 24; i++ {
		if resp := r.Query(ctx, exactsim.Request{Source: exactsim.NodeID(i % 4)}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	before := r.Stats()
	if before.HedgeDelayNanos == 0 {
		t.Fatal("tracker still cold after warm-up")
	}
	for _, m := range members {
		m.gate.delay.Store(int64(300 * time.Millisecond))
	}
	final := r.QueryStream(ctx, exactsim.Request{Source: 42, K: 5}, nil)
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	after := r.Stats()
	if after.Hedged != before.Hedged || after.HedgeSuppressed != before.HedgeSuppressed {
		t.Fatalf("stream hedged: hedged %d→%d, suppressed %d→%d",
			before.Hedged, after.Hedged, before.HedgeSuppressed, after.HedgeSuppressed)
	}
}

// TestRouterStreamNoEmitAfterReturn: QueryStream never returns while an
// attempt may still call emit, even when ctx is cancelled mid-stream.
func TestRouterStreamNoEmitAfterReturn(t *testing.T) {
	_, r := streamFleet(t, 2, manualPollOptions())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var returned, late atomic.Bool
	firstDone := make(chan struct{})
	records := 0 // unsynchronized on purpose: the race detector flags a concurrent emit
	r.QueryStream(ctx, exactsim.Request{Source: 8, Epsilon: 0.001, K: 5, NoCache: true},
		func(exactsim.Response) {
			if returned.Load() {
				late.Store(true)
			}
			records++
			if records == 1 {
				cancel()
				// Hold the first record past the cancellation: a router
				// that abandoned its running attempt returns meanwhile.
				time.Sleep(50 * time.Millisecond)
				if returned.Load() {
					late.Store(true)
				}
				close(firstDone)
			}
		})
	returned.Store(true)
	if records == 0 {
		t.Fatal("the stream ended before its first record")
	}
	<-firstDone
	if late.Load() {
		t.Fatal("emit ran after QueryStream returned")
	}
}

// TestRouterServerStreamAndAlgorithms: the fleet front door re-serves
// both new surfaces — /v1/query/stream proxies the backend ladder and
// /v1/algorithms re-serves a backend's capability document.
func TestRouterServerStreamAndAlgorithms(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(250, 3, 42)
	svcOpts := exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.05), exactsim.WithSeed(1)},
	}
	_, urls := startFleet(t, g, 2, svcOpts)
	r, err := cluster.New(urls, manualPollOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	r.Poll(ctx)
	rs := httptest.NewServer(cluster.NewServer(r, cluster.ServerOptions{}))
	defer rs.Close()

	c, err := httpapi.NewClient(rs.URL)
	if err != nil {
		t.Fatal(err)
	}

	var refinements int
	final, err := c.QueryStream(ctx, exactsim.Request{Source: 8, Epsilon: 0.001, K: 5},
		func(exactsim.Response) { refinements++ })
	if err != nil {
		t.Fatal(err)
	}
	if final.Err != nil || final.Partial || refinements == 0 {
		t.Fatalf("front-door stream: err=%v partial=%v refinements=%d",
			final.Err, final.Partial, refinements)
	}

	ar, err := c.AlgorithmsInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Default != exactsim.AlgorithmAuto {
		t.Fatalf("front-door default %q", ar.Default)
	}
	// Compare against the static caps table, not Algorithms(): sibling
	// tests in this binary register throwaway methods into the registry.
	if len(ar.Methods) != len(exactsim.AlgorithmCaps()) {
		t.Fatalf("front door re-served %d method rows, want %d",
			len(ar.Methods), len(exactsim.AlgorithmCaps()))
	}
	for _, m := range ar.Methods {
		if m.CostUnits <= 0 || m.CostNanos <= 0 {
			t.Fatalf("method %q lost its cost row through the proxy: %+v", m.Name, m)
		}
	}
}
