package httpapi_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/cluster"
	"github.com/exactsim/exactsim/httpapi"
)

// loopback starts a Service over a small graph and an httptest server in
// front of it; the caller gets a connected client.
func loopback(t *testing.T, svcOpts exactsim.ServiceOptions, srvOpts httpapi.ServerOptions,
	clientOpts ...httpapi.ClientOption) (*exactsim.Service, *httptest.Server, *httpapi.Client) {
	t.Helper()
	g := exactsim.GenerateBarabasiAlbert(300, 3, 7)
	if svcOpts.QuerierOptions == nil {
		svcOpts.QuerierOptions = []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)}
	}
	svc, err := exactsim.NewService(g, svcOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(httpapi.NewServer(svc, srvOpts))
	t.Cleanup(ts.Close)
	c, err := httpapi.NewClient(ts.URL, clientOpts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc, ts, c
}

// TestHTTPQueryAndCache: one query over the wire, then the same one again
// — the second is served by the server-side LRU and says so.
func TestHTTPQueryAndCache(t *testing.T) {
	_, _, c := loopback(t, exactsim.ServiceOptions{Workers: 2}, httpapi.ServerOptions{})
	req := exactsim.Request{Source: 3, K: 5}
	first, err := c.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Err != nil || first.CacheHit || first.GraphEpoch != 1 {
		t.Fatalf("first: %+v", first)
	}
	if len(first.TopK) != 5 || len(first.Result.Scores) != 300 {
		t.Fatalf("payload: k=%d n=%d", len(first.TopK), len(first.Result.Scores))
	}
	if first.Request.Algorithm != "exactsim" {
		t.Fatalf("normalized algorithm not echoed: %q", first.Request.Algorithm)
	}
	second, err := c.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical query missed the server-side cache")
	}
}

// TestHTTPDeadlineRoundTrip is the acceptance check for structured error
// codes: a deadline that expires server-side (carried as timeout_ms from
// the client context) surfaces client-side as an error matching
// context.DeadlineExceeded.
func TestHTTPDeadlineRoundTrip(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(3000, 5, 33)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers: 1,
		// ε=10⁻⁶ makes the diagonal phase run for many seconds uncancelled.
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(1e-6), exactsim.WithSeed(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(httpapi.NewServer(svc, httpapi.ServerOptions{}))
	defer ts.Close()
	c, err := httpapi.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	// A 50ms deadline on a query that needs seconds: the Client forwards
	// it as timeout_ms, the server cancels the computation mid-loop and
	// answers with the structured code.
	qctx, qcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer qcancel()
	_, qerr := c.SingleSource(qctx, 7)
	if qerr == nil {
		t.Fatal("deadline did not surface")
	}
	if !errors.Is(qerr, context.DeadlineExceeded) {
		t.Fatalf("got %v, want a context.DeadlineExceeded match", qerr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline honored only after %v", elapsed)
	}
	// When the server answers (rather than the client transport timing
	// out), the structured code crosses intact.
	var pe *exactsim.Error
	if errors.As(qerr, &pe) && pe.Code != exactsim.CodeDeadlineExceeded {
		t.Fatalf("structured code %q, want %q", pe.Code, exactsim.CodeDeadlineExceeded)
	}
}

// TestHTTPServerSideDeadline pins the deterministic half of the round
// trip: the deadline exists ONLY server-side (the service's
// DefaultTimeout; the client context never expires), so the structured
// "deadline_exceeded" must arrive as a Response body — and still match
// context.DeadlineExceeded through errors.Is on the client.
func TestHTTPServerSideDeadline(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(3000, 5, 33)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		Workers:        1,
		DefaultTimeout: 30 * time.Millisecond,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(1e-6), exactsim.WithSeed(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(httpapi.NewServer(svc, httpapi.ServerOptions{}))
	defer ts.Close()
	c, err := httpapi.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	_, qerr := c.SingleSource(context.Background(), 7)
	if qerr == nil {
		t.Fatal("server-side deadline did not surface")
	}
	var pe *exactsim.Error
	if !errors.As(qerr, &pe) {
		t.Fatalf("got %T (%v), want a structured *exactsim.Error", qerr, qerr)
	}
	if pe.Code != exactsim.CodeDeadlineExceeded {
		t.Fatalf("structured code %q, want %q", pe.Code, exactsim.CodeDeadlineExceeded)
	}
	if !errors.Is(qerr, context.DeadlineExceeded) {
		t.Fatal("remote deadline does not match context.DeadlineExceeded")
	}
}

// routerLoopback is loopback behind a fleet router: a router front door
// with srvOpts over one replica with the default server options. The
// caller gets a client connected to the front door.
func routerLoopback(t *testing.T, svcOpts exactsim.ServiceOptions, srvOpts httpapi.ServerOptions) (*httptest.Server, *httpapi.Client) {
	t.Helper()
	_, replica, _ := loopback(t, svcOpts, httpapi.ServerOptions{})
	r, err := cluster.New([]string{replica.URL}, cluster.Options{PollInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ts := httptest.NewServer(cluster.NewServer(r, srvOpts))
	t.Cleanup(ts.Close)
	c, err := httpapi.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return ts, c
}

// TestHTTPErrorCodes: protocol rejections cross the wire with their code
// and matching HTTP status, at a replica and at a router over one: both
// tiers run the same httpapi.Server.
func TestHTTPErrorCodes(t *testing.T) {
	svcOpts := exactsim.ServiceOptions{Workers: 1}
	srvOpts := httpapi.ServerOptions{MaxBatch: 4}
	t.Run("replica", func(t *testing.T) {
		_, ts, c := loopback(t, svcOpts, srvOpts)
		testErrorCodes(t, ts, c)
	})
	t.Run("router", func(t *testing.T) {
		ts, c := routerLoopback(t, svcOpts, srvOpts)
		testErrorCodes(t, ts, c)
	})
}

func testErrorCodes(t *testing.T, ts *httptest.Server, c *httpapi.Client) {
	resp, err := c.Query(context.Background(), exactsim.Request{Algorithm: "nope", Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == nil || resp.Err.Code != exactsim.CodeNotFound {
		t.Fatalf("unknown algorithm: %+v", resp.Err)
	}
	resp, err = c.Query(context.Background(), exactsim.Request{Source: -5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == nil || resp.Err.Code != exactsim.CodeInvalidArgument {
		t.Fatalf("bad source: %+v", resp.Err)
	}

	// Raw HTTP status mapping.
	res, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"algorithm":"nope","source":0}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown algorithm returned HTTP %d, want 404", res.StatusCode)
	}
	res, err = http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body returned HTTP %d, want 400", res.StatusCode)
	}
	requireNoEcho(t, "bad body", res)

	// A body over the 8 MiB bound is rejected once the bound is reached,
	// as the body bound and not as malformed JSON: the string it is cut
	// in is well formed up to there.
	huge := `{"source":1,"algorithm":"` + strings.Repeat("a", 9<<20) + `"}`
	res, err = http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	env := requireNoEcho(t, "oversized body", res)
	if res.StatusCode != http.StatusBadRequest || env.Err == nil ||
		env.Err.Code != exactsim.CodeInvalidArgument || !strings.Contains(env.Err.Message, "exceeds") {
		t.Fatalf("oversized body: HTTP %d, %+v", res.StatusCode, env.Err)
	}

	// A batch over the server bound is rejected as a whole, and the
	// client surfaces the structured error.
	tooBig := make([]exactsim.Request, 5)
	if _, err := c.Batch(context.Background(), tooBig); err == nil {
		t.Fatal("oversized batch accepted")
	} else {
		var pe *exactsim.Error
		if !errors.As(err, &pe) || pe.Code != exactsim.CodeInvalidArgument {
			t.Fatalf("oversized batch error: %v", err)
		}
	}

	// A warm rejected before it runs answers the same bare envelope: no
	// counts for a pass that never ran, and no graph epoch.
	for what, body := range map[string]string{
		"warm bad body":       `{not json`,
		"warm over the bound": `{"sources":[0,1,2,3,4]}`,
	} {
		res, err := http.Post(ts.URL+"/v1/warm", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		env := requireNoEcho(t, what, res)
		if res.StatusCode != http.StatusBadRequest || env.Err == nil ||
			env.Err.Code != exactsim.CodeInvalidArgument {
			t.Fatalf("%s: HTTP %d, %+v", what, res.StatusCode, env.Err)
		}
	}
}

// requireNoEcho reads and closes an error answer to a request that was
// rejected before it ran, and requires it to be a bare error envelope:
// its only member is error. There is no request echo, since the server
// decoded no request to echo, and no counts or epoch of work never done.
func requireNoEcho(t *testing.T, what string, res *http.Response) exactsim.Response {
	t.Helper()
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(data, &members); err != nil {
		t.Fatalf("%s: answer is not a JSON object: %v\n%s", what, err, data)
	}
	if _, ok := members["error"]; !ok || len(members) != 1 {
		t.Fatalf("%s: answer is not a bare error envelope: %s", what, data)
	}
	var env exactsim.Response
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return env
}

// TestHTTPBatch: mixed success/failure batch over the wire, responses in
// request order with per-request errors.
func TestHTTPBatch(t *testing.T) {
	_, _, c := loopback(t, exactsim.ServiceOptions{Workers: 3}, httpapi.ServerOptions{})
	reqs := []exactsim.Request{
		{Algorithm: "parsim", Source: 0, K: 3},
		{Algorithm: "exactsim", Source: 1},
		{Algorithm: "no-such-algorithm", Source: 2},
		{Source: 999999}, // out of range
	}
	resps, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("%d responses for %d requests", len(resps), len(reqs))
	}
	for i, r := range resps {
		if r.Request.Source != reqs[i].Source {
			t.Fatalf("response %d out of order", i)
		}
	}
	if resps[0].Err != nil || len(resps[0].TopK) != 3 {
		t.Fatalf("batch[0]: %+v", resps[0])
	}
	if resps[1].Err != nil {
		t.Fatalf("batch[1]: %v", resps[1].Err)
	}
	if resps[2].Err == nil || resps[2].Err.Code != exactsim.CodeNotFound {
		t.Fatalf("batch[2]: %+v", resps[2].Err)
	}
	if resps[3].Err == nil || resps[3].Err.Code != exactsim.CodeInvalidArgument {
		t.Fatalf("batch[3]: %+v", resps[3].Err)
	}
}

// TestHTTPAlgorithmsStatsHealth: the discovery and observability
// endpoints round-trip through the client helpers.
func TestHTTPAlgorithmsStatsHealth(t *testing.T) {
	svc, _, c := loopback(t, exactsim.ServiceOptions{Workers: 2}, httpapi.ServerOptions{})
	ctx := context.Background()

	names, def, err := c.Algorithms(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if def != exactsim.AlgorithmAuto {
		t.Fatalf("default algorithm %q", def)
	}
	want := exactsim.Algorithms()
	if len(names) != len(want) {
		t.Fatalf("algorithms %v, want %v", names, want)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Query(ctx, exactsim.Request{Source: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries < 1 || st.GraphEpoch != 1 {
		t.Fatalf("stats over the wire: %+v", st)
	}

	// A live update is visible through the remote gauges.
	if _, err := svc.Update(exactsim.GenerateBarabasiAlbert(100, 3, 1)); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.GraphEpoch != 2 {
		t.Fatalf("remote GraphEpoch = %d after update", st.GraphEpoch)
	}
	resp, err := c.Query(ctx, exactsim.Request{Source: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.GraphEpoch != 2 || len(resp.Result.Scores) != 100 {
		t.Fatalf("post-update remote query: epoch=%d n=%d", resp.GraphEpoch, len(resp.Result.Scores))
	}
}

// TestClientBadBase: constructor validation.
// TestHTTPWarm drives the prefetch endpoint over the wire: POST /v1/warm
// pre-computes hub sources, the diag-index gauges show up in /v1/stats
// afterwards, and the server bounds an explicit source list by MaxBatch.
func TestHTTPWarm(t *testing.T) {
	_, ts, c := loopback(t, exactsim.ServiceOptions{Workers: 2},
		httpapi.ServerOptions{MaxBatch: 4})

	wr, err := c.Warm(context.Background(), exactsim.WarmRequest{TopDegree: 3})
	if err != nil {
		t.Fatal(err)
	}
	if wr.Err != nil || wr.Warmed != 3 || wr.Failed != 0 || wr.GraphEpoch != 1 {
		t.Fatalf("warm: %+v", wr)
	}

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.DiagIndexEnabled || st.DiagChunks == 0 || st.DiagResidentBytes <= 0 {
		t.Fatalf("diag gauges missing over the wire: %+v", st)
	}

	// Explicit sources work, and failures are per-source counts.
	wr, err = c.Warm(context.Background(), exactsim.WarmRequest{
		Sources: []exactsim.NodeID{1, 2, 9999},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wr.Warmed != 2 || wr.Failed != 1 {
		t.Fatalf("explicit sources: %+v", wr)
	}

	// An oversized source list — or hub count — is rejected wholesale
	// with the batch bound.
	wr, err = c.Warm(context.Background(), exactsim.WarmRequest{
		Sources: []exactsim.NodeID{0, 1, 2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wr.Err == nil || wr.Err.Code != exactsim.CodeInvalidArgument {
		t.Fatalf("oversized warm list: %+v", wr)
	}
	wr, err = c.Warm(context.Background(), exactsim.WarmRequest{TopDegree: 10})
	if err != nil {
		t.Fatal(err)
	}
	if wr.Err == nil || wr.Err.Code != exactsim.CodeInvalidArgument {
		t.Fatalf("oversized top_degree: %+v", wr)
	}
	// An empty request implies the service's default hub fan-out (32),
	// which this server's MaxBatch=4 must also bound.
	wr, err = c.Warm(context.Background(), exactsim.WarmRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if wr.Err == nil || wr.Err.Code != exactsim.CodeInvalidArgument {
		t.Fatalf("default fan-out over bound: %+v", wr)
	}
	// TopDegree is irrelevant (and unchecked) when Sources are explicit —
	// the service ignores it, so the bound must too.
	wr, err = c.Warm(context.Background(), exactsim.WarmRequest{
		Sources: []exactsim.NodeID{1, 2}, TopDegree: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wr.Err != nil || wr.Warmed != 2 {
		t.Fatalf("explicit sources with stray top_degree: %+v", wr)
	}

	// A bad request body answers 400 with the protocol envelope.
	res, err := http.Post(ts.URL+"/v1/warm", "application/json",
		strings.NewReader(`{"top_degree": -1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative top_degree answered %s", res.Status)
	}
}

func TestClientBadBase(t *testing.T) {
	if _, err := httpapi.NewClient("not a url"); err == nil {
		t.Fatal("garbage base URL accepted")
	}
	if _, err := httpapi.NewClient("/just/a/path"); err == nil {
		t.Fatal("schemeless base URL accepted")
	}
}
