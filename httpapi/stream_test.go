package httpapi_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/httpapi"
)

// TestEnvelopeWireCompat: the generic timeout envelope serializes the
// payload flat with timeout_ms spliced in — the exact pre-envelope wire
// shape — and round-trips losslessly.
func TestEnvelopeWireCompat(t *testing.T) {
	qr := httpapi.QueryRequest{
		Body:          exactsim.Request{Algorithm: "exactsim", Source: 42, K: 5, Epsilon: 0.01},
		TimeoutMillis: 1500,
	}
	blob, err := json.Marshal(qr)
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(blob, &wire); err != nil {
		t.Fatal(err)
	}
	// Flat: the request's own fields at top level, plus timeout_ms.
	for _, key := range []string{"algorithm", "source", "k", "epsilon", "timeout_ms"} {
		if _, ok := wire[key]; !ok {
			t.Fatalf("wire object missing %q: %s", key, blob)
		}
	}
	if ms, ok := wire["timeout_ms"].(float64); !ok || ms != 1500 {
		t.Fatalf("timeout_ms = %v", wire["timeout_ms"])
	}
	var back httpapi.QueryRequest
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != qr {
		t.Fatalf("round trip lost data:\n in: %+v\nout: %+v", qr, back)
	}

	// No wire-requested timeout → no timeout_ms key at all.
	blob, err = json.Marshal(httpapi.QueryRequest{Body: exactsim.Request{Source: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wire = nil
	if err := json.Unmarshal(blob, &wire); err != nil {
		t.Fatal(err)
	}
	if _, ok := wire["timeout_ms"]; ok {
		t.Fatalf("zero timeout serialized anyway: %s", blob)
	}

	// The batch and warm envelopes ride the same generic type.
	bb, err := json.Marshal(httpapi.BatchRequest{
		Body:          httpapi.Batch{Requests: []exactsim.Request{{Source: 1}}},
		TimeoutMillis: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bw struct {
		Requests      []exactsim.Request `json:"requests"`
		TimeoutMillis int64              `json:"timeout_ms"`
	}
	if err := json.Unmarshal(bb, &bw); err != nil {
		t.Fatal(err)
	}
	if len(bw.Requests) != 1 || bw.TimeoutMillis != 7 {
		t.Fatalf("batch envelope wire shape: %s", bb)
	}
}

// TestHTTPQueryStream: refinements arrive as NDJSON records and the
// terminal record is byte-for-byte the non-streaming answer.
func TestHTTPQueryStream(t *testing.T) {
	_, _, c := loopback(t, exactsim.ServiceOptions{Workers: 2}, httpapi.ServerOptions{})
	ctx := context.Background()
	req := exactsim.Request{Source: 8, Epsilon: 0.001, K: 5}

	var refinements []exactsim.Response
	final, err := c.QueryStream(ctx, req, func(r exactsim.Response) { refinements = append(refinements, r) })
	if err != nil {
		t.Fatal(err)
	}
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	if final.Partial {
		t.Fatal("terminal record flagged Partial")
	}
	if len(refinements) == 0 {
		t.Fatal("no refinements over the wire for a multi-tier ladder")
	}
	for i, ref := range refinements {
		if !ref.Partial || ref.AchievedEpsilon <= 0 {
			t.Fatalf("refinement %d not a tier record: %+v", i, ref)
		}
	}

	// The stream's final tier landed in the server cache under the same
	// key — the plain endpoint now answers the identical result.
	plain, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Err != nil || !plain.CacheHit {
		t.Fatalf("plain query after stream: hit=%v err=%v", plain.CacheHit, plain.Err)
	}
	if len(final.Result.Scores) != len(plain.Result.Scores) {
		t.Fatalf("score lengths differ: %d vs %d", len(final.Result.Scores), len(plain.Result.Scores))
	}
	for i := range final.Result.Scores {
		if math.Float64bits(final.Result.Scores[i]) != math.Float64bits(plain.Result.Scores[i]) {
			t.Fatalf("stream and plain answers diverge at %d", i)
		}
	}
}

// TestHTTPQueryStreamRejection: a request rejected before anything
// streams answers with the normal JSON error envelope, which the client
// surfaces in Response.Err like the plain endpoint does.
func TestHTTPQueryStreamRejection(t *testing.T) {
	_, _, c := loopback(t, exactsim.ServiceOptions{Workers: 1}, httpapi.ServerOptions{})
	final, err := c.QueryStream(context.Background(),
		exactsim.Request{Source: 99999}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Err == nil || final.Err.Code != exactsim.CodeInvalidArgument {
		t.Fatalf("rejection: %+v", final.Err)
	}
}

// TestHTTPQueryStreamPartialDeadline: an opted-in stream under a tight
// wire deadline ends with a Partial best-so-far terminal record — no
// deadline_exceeded, through the full HTTP round trip.
func TestHTTPQueryStreamPartialDeadline(t *testing.T) {
	_, _, c := loopback(t, exactsim.ServiceOptions{Workers: 1}, httpapi.ServerOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	// ε=2.5e-4 starts the ladder at its cheapest rung (0.064 — inside
	// the deadline even race-instrumented) while the terminal rung can
	// never fit the remaining budget, so the checkpoint bails mid-ladder
	// and the final record arrives well before the client context
	// expires.
	final, err := c.QueryStream(ctx,
		exactsim.Request{Source: 5, Epsilon: 2.5e-4, AllowPartial: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Err != nil {
		t.Fatalf("opted-in stream errored: %v", final.Err)
	}
	if !final.Partial || final.AchievedEpsilon <= 0 || final.Result == nil {
		t.Fatalf("terminal record not best-so-far: partial=%v achieved=%g",
			final.Partial, final.AchievedEpsilon)
	}
}

// TestHTTPQueryPartialDeadline: the plain endpoint's twin of
// TestHTTPQueryStreamPartialDeadline — an opted-in query under a tight
// wire deadline answers a Partial best-so-far before the client's
// deadline, never deadline_exceeded.
func TestHTTPQueryPartialDeadline(t *testing.T) {
	_, _, c := loopback(t, exactsim.ServiceOptions{Workers: 1}, httpapi.ServerOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := c.Query(ctx, exactsim.Request{Source: 5, Epsilon: 2.5e-4, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != nil {
		t.Fatalf("opted-in query errored: %v", resp.Err)
	}
	if !resp.Partial || resp.AchievedEpsilon <= 0 || resp.Result == nil {
		t.Fatalf("answer not best-so-far: partial=%v achieved=%g", resp.Partial, resp.AchievedEpsilon)
	}
}

// TestRouterQueryPartialDeadline is TestHTTPQueryPartialDeadline through
// a router front door over one replica. Each HTTP tier cuts an opted-in
// request a tenth of what remains of its budget early, so the
// best-so-far answer crosses both hops before the caller's deadline.
func TestRouterQueryPartialDeadline(t *testing.T) {
	_, c := routerLoopback(t, exactsim.ServiceOptions{Workers: 1}, httpapi.ServerOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := c.Query(ctx, exactsim.Request{Source: 5, Epsilon: 2.5e-4, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != nil {
		t.Fatalf("opted-in query errored: %v", resp.Err)
	}
	if !resp.Partial || resp.AchievedEpsilon <= 0 || resp.Result == nil {
		t.Fatalf("answer not best-so-far: partial=%v achieved=%g", resp.Partial, resp.AchievedEpsilon)
	}
}

// TestRouterQueryStreamPartialDeadline is
// TestHTTPQueryStreamPartialDeadline through a router front door over one
// replica: the stream's terminal record is the best-so-far answer, and it
// arrives before the caller's deadline.
func TestRouterQueryStreamPartialDeadline(t *testing.T) {
	_, c := routerLoopback(t, exactsim.ServiceOptions{Workers: 1}, httpapi.ServerOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	final, err := c.QueryStream(ctx,
		exactsim.Request{Source: 5, Epsilon: 2.5e-4, AllowPartial: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Err != nil {
		t.Fatalf("opted-in stream errored: %v", final.Err)
	}
	if !final.Partial || final.AchievedEpsilon <= 0 || final.Result == nil {
		t.Fatalf("terminal record not best-so-far: partial=%v achieved=%g",
			final.Partial, final.AchievedEpsilon)
	}
}

// TestHTTPAlgorithmsInfo: the capability surface carries one caps+cost
// row per registry method, and the client caches it — repeated calls
// cost one upstream round trip total.
func TestHTTPAlgorithmsInfo(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(300, 3, 7)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        1,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	inner := httpapi.NewServer(svc, httpapi.ServerOptions{})
	var algoHits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/algorithms" {
			algoHits.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := httpapi.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	ar, err := c.AlgorithmsInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Default != exactsim.AlgorithmAuto {
		t.Fatalf("default %q", ar.Default)
	}
	if len(ar.Methods) != len(exactsim.AlgorithmCaps()) {
		t.Fatalf("%d method rows, want %d", len(ar.Methods), len(exactsim.AlgorithmCaps()))
	}
	byName := make(map[string]httpapi.MethodInfo)
	for _, m := range ar.Methods {
		if !m.SupportsTopK {
			t.Errorf("method %q reports no top-k support", m.Name)
		}
		if m.CostUnits <= 0 || m.CostNanos <= 0 {
			t.Errorf("method %q has no cost row: %+v", m.Name, m)
		}
		byName[m.Name] = m
	}
	if es := byName["exactsim"]; es.Exactness != exactsim.ExactnessErrorBounded || !es.ErrorDriven {
		t.Fatalf("exactsim caps: %+v", es)
	}
	if pm := byName["powermethod"]; pm.Exactness != exactsim.ExactnessExact || pm.ErrorDriven {
		t.Fatalf("powermethod caps: %+v", pm)
	}

	// Cached: two more reads, still one upstream hit.
	if _, err := c.AlgorithmsInfo(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Algorithms(ctx); err != nil {
		t.Fatal(err)
	}
	if n := algoHits.Load(); n != 1 {
		t.Fatalf("upstream /v1/algorithms hit %d times, want 1 (client cache)", n)
	}
}
