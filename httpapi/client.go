package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	exactsim "github.com/exactsim/exactsim"
)

// sharedTransport is the pooled transport every Client constructed
// without WithHTTPClient shares. One tuned pool matters under fan-out:
// a router fronting N backends opens connections from one process to a
// handful of hosts at high rate, and http.DefaultClient's per-host idle
// cap of 2 would churn ephemeral ports (TIME_WAIT exhaustion) exactly
// when the fleet is busiest. Kept package-private; substitute a whole
// *http.Client via WithHTTPClient to customize.
var sharedTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	ForceAttemptHTTP2:     true,
	MaxIdleConns:          512,
	MaxIdleConnsPerHost:   64,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   5 * time.Second,
	ExpectContinueTimeout: time.Second,
}

var sharedClient = &http.Client{Transport: sharedTransport}

// SharedClient returns the package-wide pooled *http.Client used by
// every Client constructed without WithHTTPClient — exported so sibling
// transports (the cluster router's raw snapshot proxy) reuse the same
// connection pool instead of growing a second one.
func SharedClient() *http.Client { return sharedClient }

// Client talks the HTTP query protocol and implements exactsim.Querier,
// so a remote exactsimd slots in anywhere a local querier does:
//
//	c, _ := httpapi.NewClient("http://localhost:8640", httpapi.WithAlgorithm("exactsim"))
//	var q exactsim.Querier = c
//	res, err := q.SingleSource(ctx, 42)
//
// A context deadline on a call is forwarded to the server as timeout_ms,
// so the computation is cancelled server-side too; a server-side
// "deadline_exceeded" comes back as an error matching
// context.DeadlineExceeded under errors.Is. Client is safe for concurrent
// use.
type Client struct {
	base      string
	hc        *http.Client
	algorithm string
	epsilon   float64

	// retries is how many times a failed idempotent POST (query, batch,
	// warm) is re-sent after the first attempt. Probes (Health, Ready),
	// Stats, Algorithms and Snapshot never retry: probes feed membership
	// decisions that must see failures, and a snapshot stream restarts
	// cheaper at the caller.
	retries   int
	retryBase time.Duration
	retryCap  time.Duration

	// Retry budget (token bucket): each retry spends one token, each
	// successful exchange earns budgetRatio back, capped at budgetBurst.
	// At steady state retries are bounded to ~budgetRatio of traffic, so
	// a saturated fleet sees at most (1+ratio)× its offered load instead
	// of a (1+retries)× retry storm. budgetBurst <= 0 disables the budget
	// (WithRetryBudget(-1, 0)).
	budgetMu     sync.Mutex
	budgetTokens float64
	budgetRatio  float64
	budgetBurst  float64

	// Monotonic retry accounting (RetryStats): total attempts sent,
	// retries among them, and retries the exhausted budget suppressed.
	attempts        atomic.Int64
	retriesSent     atomic.Int64
	retriesDeclined atomic.Int64

	// algoCache memoizes the /v1/algorithms capability surface (static
	// registry, slowly drifting cost rows) after the first successful
	// fetch; see AlgorithmsInfo.
	algoMu    sync.Mutex
	algoCache *AlgorithmsResponse
}

const (
	defaultRetries     = 2
	defaultRetryBase   = 5 * time.Millisecond
	defaultRetryCap    = 250 * time.Millisecond
	defaultBudgetRatio = 0.1
	defaultBudgetBurst = 10
)

// ClientOption customizes NewClient.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport tuning, instrumentation). Default: a package-wide client
// over one pooled, keep-alive transport shared by all Clients (see
// SharedClient), so many clients against many hosts don't exhaust
// ephemeral ports under load.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithAlgorithm pins the algorithm SingleSource and TopK request; empty
// (the default) lets the server's default answer.
func WithAlgorithm(name string) ClientOption {
	return func(c *Client) { c.algorithm = name }
}

// WithEpsilon pins the per-request error target SingleSource and TopK
// request; 0 (the default) keeps the server-side default.
func WithEpsilon(eps float64) ClientOption {
	return func(c *Client) { c.epsilon = eps }
}

// WithRetries sets how many times a failed Query/Batch/Warm call is
// re-sent (default 2, so up to 3 attempts). Negative disables retries
// entirely — a router that does its own replica-level retrying may want
// the raw first-attempt outcome. Only transport failures and the
// retryable protocol codes (unavailable, closed, internal) re-send; the
// API is read-only and a connection reset fires before the request is
// accepted, so a retry can never double-apply anything.
func WithRetries(n int) ClientOption {
	return func(c *Client) {
		if n < 0 {
			n = 0
		}
		c.retries = n
	}
}

// WithRetryBackoff tunes the decorrelated-jitter backoff between retry
// attempts: sleeps start around base and are capped at cap. Zero values
// keep the defaults (5ms base, 250ms cap).
func WithRetryBackoff(base, cap time.Duration) ClientOption {
	return func(c *Client) {
		if base > 0 {
			c.retryBase = base
		}
		if cap > 0 {
			c.retryCap = cap
		}
	}
}

// WithRetryBudget tunes the client-wide retry token bucket: each retry
// spends one token, each successful exchange earns ratio back, and the
// bucket holds at most burst tokens (also its starting balance, so a
// cold client can still rescue early transients). At steady state the
// budget caps retry amplification near 1+ratio — the collective-action
// fix for retry storms: when the fleet is saturated nobody's retries
// are succeeding, so nobody earns tokens, so everybody stops re-sending.
// ratio < 0 disables the budget entirely (per-call WithRetries attempts
// always allowed); ratio 0 or burst 0 keep the defaults (0.1, 10).
func WithRetryBudget(ratio float64, burst int) ClientOption {
	return func(c *Client) {
		if ratio < 0 {
			c.budgetRatio, c.budgetBurst = 0, 0
			return
		}
		if ratio > 0 {
			c.budgetRatio = ratio
		}
		if burst > 0 {
			c.budgetBurst = float64(burst)
		}
		c.budgetTokens = c.budgetBurst
	}
}

// RetryStats reports the client's cumulative retry accounting: attempts
// actually sent, how many of those were retries, and how many retries
// the exhausted budget suppressed. Amplification observed by servers is
// Attempts / (Attempts - Retries).
type RetryStats struct {
	Attempts   int64 `json:"attempts"`
	Retries    int64 `json:"retries"`
	Suppressed int64 `json:"suppressed"`
}

// RetryStats snapshots the retry counters (safe for concurrent use).
func (c *Client) RetryStats() RetryStats {
	return RetryStats{
		Attempts:   c.attempts.Load(),
		Retries:    c.retriesSent.Load(),
		Suppressed: c.retriesDeclined.Load(),
	}
}

// spendRetryToken reports whether the budget lets another retry go out,
// consuming one token when it does. A disabled budget always allows.
func (c *Client) spendRetryToken() bool {
	c.budgetMu.Lock()
	defer c.budgetMu.Unlock()
	if c.budgetBurst <= 0 {
		return true
	}
	if c.budgetTokens < 1 {
		return false
	}
	c.budgetTokens--
	return true
}

// earnRetryToken credits the budget for one successful exchange.
func (c *Client) earnRetryToken() {
	c.budgetMu.Lock()
	if c.budgetTokens += c.budgetRatio; c.budgetTokens > c.budgetBurst {
		c.budgetTokens = c.budgetBurst
	}
	c.budgetMu.Unlock()
}

// NewClient points a client at an exactsimd base URL (scheme + host,
// e.g. "http://localhost:8640").
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, exactsim.Wrapf(exactsim.CodeInvalidArgument, err, "httpapi: bad base URL %q", baseURL)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, exactsim.Errorf(exactsim.CodeInvalidArgument, "httpapi: base URL %q needs a scheme and host", baseURL)
	}
	c := &Client{
		base: strings.TrimRight(u.String(), "/"), hc: sharedClient,
		retries: defaultRetries, retryBase: defaultRetryBase, retryCap: defaultRetryCap,
		budgetRatio: defaultBudgetRatio, budgetBurst: defaultBudgetBurst,
		budgetTokens: defaultBudgetBurst,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Name returns the algorithm this client was configured with ("" = the
// server default answers).
func (c *Client) Name() string { return c.algorithm }

// Graph returns nil: the remote graph is not materialized client-side.
// Callers that need its shape ask the server (Stats reports the epoch;
// score vectors arrive sized to the remote n).
func (c *Client) Graph() *exactsim.Graph { return nil }

// SingleSource answers one single-source query remotely. Per-request
// failures (including a server-side deadline) are returned as the
// structured *exactsim.Error.
func (c *Client) SingleSource(ctx context.Context, source exactsim.NodeID) (*exactsim.QueryResult, error) {
	resp, err := c.Query(ctx, exactsim.Request{
		Algorithm: c.algorithm, Source: source, Epsilon: c.epsilon,
	})
	if err != nil {
		return nil, err
	}
	if resp.Err != nil {
		return nil, resp.Err
	}
	return resp.Result, nil
}

// TopK answers one top-k query remotely, returning the entries and the
// underlying full result.
func (c *Client) TopK(ctx context.Context, source exactsim.NodeID, k int) ([]exactsim.Entry, *exactsim.QueryResult, error) {
	if k <= 0 {
		return nil, nil, exactsim.Errorf(exactsim.CodeInvalidArgument, "httpapi: k %d not positive", k)
	}
	resp, err := c.Query(ctx, exactsim.Request{
		Algorithm: c.algorithm, Source: source, Epsilon: c.epsilon, K: k,
	})
	if err != nil {
		return nil, nil, err
	}
	if resp.Err != nil {
		return nil, nil, resp.Err
	}
	return resp.TopK, resp.Result, nil
}

// Query sends one protocol request verbatim. The returned error covers
// transport and decoding failures only; per-request failures arrive in
// Response.Err, exactly as they do from a local Service.
func (c *Client) Query(ctx context.Context, req exactsim.Request) (exactsim.Response, error) {
	qr := QueryRequest{Body: req, TimeoutMillis: timeoutMillis(ctx)}
	var resp exactsim.Response
	if err := c.post(ctx, "/v1/query", &qr, &resp); err != nil {
		return queryFailure(req, resp, err)
	}
	return resp, nil
}

// QueryBody is Query for a relay, which forwards an answer it need not
// read. A 2xx answer comes back as its body, checked to be one
// well-formed JSON object but not decoded, with a zero Response: a 2xx
// answer carries no error (see StatusOf). Anything else comes back with a
// nil body, exactly as Query reports it: a protocol error in
// Response.Err, a transport failure as the error.
func (c *Client) QueryBody(ctx context.Context, req exactsim.Request) ([]byte, exactsim.Response, error) {
	qr := QueryRequest{Body: req, TimeoutMillis: timeoutMillis(ctx)}
	var out relayBody
	if err := c.post(ctx, "/v1/query", &qr, &out); err != nil {
		resp, err := queryFailure(req, out.resp, err)
		return nil, resp, err
	}
	return out.body, exactsim.Response{}, nil
}

// relayBody is QueryBody's decoding target: the checked 2xx body, or the
// decoded envelope of a non-2xx answer.
type relayBody struct {
	body []byte
	resp exactsim.Response
}

// queryFailure sorts a failed /v1/query exchange: a protocol error
// (non-2xx with a {code, message} envelope) belongs in Response.Err, same
// as a local Service would report it; only transport failures surface as
// the error.
func queryFailure(req exactsim.Request, resp exactsim.Response, err error) (exactsim.Response, error) {
	var pe *exactsim.Error
	if errors.As(err, &pe) {
		if resp.Err == nil {
			resp.Err = pe
		}
		if resp.Request == (exactsim.Request{}) {
			resp.Request = req
		}
		return resp, nil
	}
	return exactsim.Response{Request: req}, err
}

// Batch sends many requests in one round trip; responses align with
// requests by index, each carrying its own Err.
func (c *Client) Batch(ctx context.Context, reqs []exactsim.Request) ([]exactsim.Response, error) {
	br := BatchRequest{Body: Batch{Requests: reqs}, TimeoutMillis: timeoutMillis(ctx)}
	var out BatchResponse
	if err := c.post(ctx, "/v1/batch", &br, &out); err != nil {
		return nil, err
	}
	return out.Responses, nil
}

// Warm asks the server to pre-compute sources (or its top in-degree hubs
// when the request names none), filling the remote result cache and
// diagonal sample index; see exactsim.Service.Warm. The returned error
// covers transport failures; a wholesale protocol rejection arrives in
// WarmResponse.Err.
func (c *Client) Warm(ctx context.Context, wr exactsim.WarmRequest) (exactsim.WarmResponse, error) {
	req := WarmRequest{Body: wr, TimeoutMillis: timeoutMillis(ctx)}
	var resp exactsim.WarmResponse
	if err := c.post(ctx, "/v1/warm", &req, &resp); err != nil {
		var pe *exactsim.Error
		if errors.As(err, &pe) {
			if resp.Err == nil {
				resp.Err = pe
			}
			return resp, nil
		}
		return exactsim.WarmResponse{}, err
	}
	return resp, nil
}

// QueryStream sends one request to POST /v1/query/stream and invokes
// emit for each intermediate refinement record (Partial responses, in
// tightening-epsilon order) as it arrives. The returned Response is the
// terminal record (final: true) — bit-identical to what Query would have
// answered for the same request. Streams never retry: refinements may
// already have reached emit, and replaying them on a re-send would hand
// the caller the same tiers twice.
func (c *Client) QueryStream(ctx context.Context, req exactsim.Request, emit func(exactsim.Response)) (exactsim.Response, error) {
	if emit == nil {
		emit = func(exactsim.Response) {}
	}
	qr := QueryRequest{Body: req, TimeoutMillis: timeoutMillis(ctx)}
	body, err := json.Marshal(&qr)
	if err != nil {
		return exactsim.Response{Request: req},
			exactsim.Wrapf(exactsim.CodeInvalidArgument, err, "httpapi: encoding /v1/query/stream request")
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query/stream", bytes.NewReader(body))
	if err != nil {
		return exactsim.Response{Request: req}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	c.attempts.Add(1)
	res, err := c.hc.Do(hreq)
	if err != nil {
		return exactsim.Response{Request: req}, err
	}
	defer res.Body.Close()
	if res.StatusCode < 200 || res.StatusCode >= 300 {
		// Nothing streamed yet: the server rejected with the normal JSON
		// error envelope, which for this endpoint is a Response.
		data, _ := io.ReadAll(io.LimitReader(res.Body, 1<<20))
		var resp exactsim.Response
		if json.Unmarshal(data, &resp) == nil && resp.Err != nil {
			if resp.Request == (exactsim.Request{}) {
				resp.Request = req
			}
			return resp, nil
		}
		return exactsim.Response{Request: req},
			exactsim.Errorf(exactsim.CodeUnavailable, "httpapi: POST /v1/query/stream returned %s", res.Status)
	}
	// json.Decoder, not bufio.Scanner: a record carrying a full score
	// vector can exceed a scanner's token cap, and NDJSON records are
	// self-delimiting JSON anyway.
	dec := json.NewDecoder(res.Body)
	for {
		var rec StreamRecord
		if err := dec.Decode(&rec); err != nil {
			// A stream that ends before its final record is a broken
			// transport, not an answer — the terminal record is the only
			// one the protocol guarantees. Wrapf keeps the cause, so a
			// mid-stream context cancellation still matches errors.Is.
			return exactsim.Response{Request: req},
				exactsim.Wrapf(exactsim.CodeUnavailable, err, "httpapi: /v1/query/stream ended before the final record")
		}
		if rec.Final {
			c.earnRetryToken()
			return rec.Response, nil
		}
		emit(rec.Response)
	}
}

// Snapshot downloads the server's current graph generation as a
// snapshot container — graph plus diagonal sample index — and copies it
// to w, returning the byte count and the graph epoch the server
// reported. Save it to a file and boot a warm clone with
// exactsim.OpenSnapshot (or `exactsimd -snapshot`): that is how a fresh
// fleet member skips both the graph parse and the sampling the peer
// already paid for. The container is self-checksummed; a transfer
// truncated mid-stream fails to open.
func (c *Client) Snapshot(ctx context.Context, w io.Writer) (n int64, epoch uint64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/snapshot", nil)
	if err != nil {
		return 0, 0, err
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	if res.StatusCode < 200 || res.StatusCode >= 300 {
		data, _ := io.ReadAll(io.LimitReader(res.Body, 1<<20))
		drainClose(res.Body)
		var env struct {
			Err *exactsim.Error `json:"error"`
		}
		if json.Unmarshal(data, &env) == nil && env.Err != nil {
			return 0, 0, env.Err
		}
		return 0, 0, exactsim.Errorf(exactsim.CodeUnavailable, "httpapi: POST /v1/snapshot returned %s", res.Status)
	}
	defer res.Body.Close()
	epoch, _ = strconv.ParseUint(res.Header.Get("X-Exactsim-Graph-Epoch"), 10, 64)
	n, err = io.Copy(w, res.Body)
	if err != nil {
		return n, epoch, exactsim.Wrapf(exactsim.CodeUnavailable, err, "httpapi: downloading snapshot")
	}
	return n, epoch, nil
}

// AlgorithmsInfo returns the server's full capability/cost surface
// (GET /v1/algorithms), memoized after the first successful fetch: the
// registry is static and the cost rows drift only slowly, so one round
// trip per client amortizes across every later planning decision. Build
// a fresh Client to re-read.
func (c *Client) AlgorithmsInfo(ctx context.Context) (AlgorithmsResponse, error) {
	c.algoMu.Lock()
	defer c.algoMu.Unlock()
	if c.algoCache != nil {
		return *c.algoCache, nil
	}
	var ar AlgorithmsResponse
	if err := c.get(ctx, "/v1/algorithms", &ar); err != nil {
		return AlgorithmsResponse{}, err
	}
	c.algoCache = &ar
	return ar, nil
}

// Algorithms returns the server's registry names and default algorithm
// (a subset of AlgorithmsInfo, sharing its cache).
func (c *Client) Algorithms(ctx context.Context) (names []string, def string, err error) {
	ar, err := c.AlgorithmsInfo(ctx)
	if err != nil {
		return nil, "", err
	}
	return ar.Algorithms, ar.Default, nil
}

// Stats returns the server's service counters and gauges.
func (c *Client) Stats(ctx context.Context) (exactsim.ServiceStats, error) {
	var st exactsim.ServiceStats
	err := c.get(ctx, "/v1/stats", &st)
	return st, err
}

// Health probes GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	drainClose(res.Body)
	if res.StatusCode != http.StatusOK {
		return exactsim.Errorf(exactsim.CodeUnavailable, "httpapi: health check returned %s", res.Status)
	}
	return nil
}

// Ready probes GET /readyz — readiness, not liveness: a 200 means the
// server wants new traffic; a draining or epoch-less server answers 503
// while /healthz still reports it alive. Routers poll this one.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	drainClose(res.Body)
	if res.StatusCode != http.StatusOK {
		return exactsim.Errorf(exactsim.CodeUnavailable, "httpapi: readiness check returned %s", res.Status)
	}
	return nil
}

// readBuffers recycles response-body buffers: a /v1/query answer is
// megabytes, and growing a fresh buffer to that size, one reallocation
// and copy after another, costs more than the relay's scan of it.
var readBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// drainClose consumes what remains of a response body (bounded) before
// closing it. An undrained body forces net/http to tear the connection
// down instead of returning it to the pool — under fleet fan-out that
// turns every error path into a fresh TCP+TLS handshake exactly when
// things are already going badly. The bound keeps a hostile/huge body
// from turning politeness into an unbounded read.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 256<<10))
	body.Close()
}

// timeoutMillis converts a context deadline into the wire timeout (≥1ms
// when a deadline exists, so an almost-expired context still serializes
// as a bound rather than "none").
func timeoutMillis(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// post sends one JSON request, retrying transport failures and retryable
// protocol errors with capped decorrelated-jitter backoff. Every retried
// path here is an idempotent read (the whole /v1 surface is); a reset
// always fires before the server accepts the request, so re-sending is
// safe. Each retry must also clear the token-bucket retry budget — under
// fleet-wide saturation nothing succeeds, tokens stop flowing, and the
// whole client population quiets down instead of storming. A retry only
// sleeps when the remaining context deadline budget can absorb the sleep
// *and* another attempt — otherwise the last error returns immediately
// instead of burning the caller's deadline on a wait; a retry_after_ms
// hint on the error floors the sleep (the server told us when the
// backlog should have moved).
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("httpapi: encoding %s request: %w", path, err)
	}
	prev := c.retryBase
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// A failed decode may have partially filled out; each attempt
			// must start from a zero value or stale fields survive a later
			// success (json.Unmarshal merges, it does not reset).
			reflect.ValueOf(out).Elem().SetZero()
			// Deadline re-propagation: the first attempt and the backoff
			// sleeps have spent part of the caller's budget, so a retried
			// request re-serializes what actually remains — the server must
			// never be granted dwell the client has already burned.
			if dc, ok := in.(interface{ setTimeout(int64) }); ok {
				if ms := timeoutMillis(ctx); ms > 0 {
					dc.setTimeout(ms)
					if body, err = json.Marshal(in); err != nil {
						return fmt.Errorf("httpapi: encoding %s request: %w", path, err)
					}
				}
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		c.attempts.Add(1)
		if attempt > 0 {
			c.retriesSent.Add(1)
		}
		err = c.do(req, out)
		if err == nil {
			c.earnRetryToken()
			return nil
		}
		if attempt >= c.retries || !retryableError(err) || ctx.Err() != nil {
			return err
		}
		if !c.spendRetryToken() {
			c.retriesDeclined.Add(1)
			return err
		}
		sleep, ok := c.backoff(ctx, &prev, exactsim.RetryAfter(err))
		if !ok {
			return err
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return err
		}
	}
}

// backoff draws the next decorrelated-jitter sleep (uniform in
// [base, 3·prev], capped, floored at the server's retry_after hint) and
// reports whether the context's remaining deadline budget can afford
// sleeping and then trying again.
func (c *Client) backoff(ctx context.Context, prev *time.Duration, floor time.Duration) (time.Duration, bool) {
	lo, hi := c.retryBase, 3*(*prev)
	if hi > c.retryCap {
		hi = c.retryCap
	}
	sleep := lo
	if hi > lo {
		sleep = lo + rand.N(hi-lo)
	}
	if sleep < floor {
		// The server's hint outranks the jitter draw — retrying sooner
		// than the backlog can drain is a wasted attempt. It also
		// outranks retryCap: the hint is already bounded server-side.
		sleep = floor
	}
	*prev = sleep
	if dl, ok := ctx.Deadline(); ok {
		// Require room for the sleep plus a non-trivial attempt.
		if time.Until(dl) < sleep+2*c.retryBase {
			return 0, false
		}
	}
	return sleep, true
}

// retryableError reports whether one attempt's failure is worth
// re-sending: any transport-level failure (the request may never have
// arrived, or the response never made it back intact), or a protocol
// error whose code promises the server rejected without doing the work.
func retryableError(err error) bool {
	var pe *exactsim.Error
	if errors.As(err, &pe) {
		switch pe.Code {
		case exactsim.CodeUnavailable, exactsim.CodeClosed, exactsim.CodeInternal:
			return true
		}
		return false
	}
	// Deliberate non-retry on context errors: the caller's budget is gone.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// do executes one exchange and decodes the JSON body into out. A non-2xx
// status with a protocol {code, message} envelope is returned as the
// *exactsim.Error it carries (after also decoding the envelope into out,
// which for /v1/query is the same Response); anything else non-2xx, or a
// 2xx body that is not the protocol's JSON, is a transport error. A 2xx
// /v1/query answer decodes through the answer codec, or for a relay is
// only checked.
func (c *Client) do(req *http.Request, out any) error {
	res, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	buf := readBuffers.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		readBuffers.Put(buf)
	}()
	if _, err := buf.ReadFrom(res.Body); err != nil {
		return fmt.Errorf("httpapi: reading %s %s response: %w", req.Method, req.URL.Path, err)
	}
	// Every decoder below copies what it keeps; only a relayed body is
	// kept as bytes, and it is cloned out of the pooled buffer.
	data := buf.Bytes()
	if res.StatusCode < 200 || res.StatusCode >= 300 {
		var env struct {
			Err *exactsim.Error `json:"error"`
		}
		if json.Unmarshal(data, &env) == nil && env.Err != nil {
			if rb, ok := out.(*relayBody); ok {
				out = &rb.resp
			}
			json.Unmarshal(data, out)
			return env.Err
		}
		return fmt.Errorf("httpapi: %s %s returned %s", req.Method, req.URL.Path, res.Status)
	}
	switch o := out.(type) {
	case *exactsim.Response:
		err = DecodeResponse(data, o)
	case *relayBody:
		if err = scanResponse(data); err == nil {
			o.body = bytes.Clone(data)
		}
	default:
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		return fmt.Errorf("httpapi: %s %s returned %s with undecodable body: %v",
			req.Method, req.URL.Path, res.Status, err)
	}
	return nil
}
