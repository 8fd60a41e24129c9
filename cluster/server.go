package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/httpapi"
)

// ServerOptions bounds what one request to the router may cost; the
// semantics mirror httpapi.ServerOptions so operators tune one mental
// model for both tiers.
type ServerOptions struct {
	// MaxBatch caps the request count of one /v1/batch call. 0 selects
	// 4096; negative removes the bound.
	MaxBatch int
	// MaxBodyBytes caps a request body. 0 selects 8 MiB; negative
	// removes the bound.
	MaxBodyBytes int64
	// MaxTimeout clamps client-requested timeout_ms values, and bounds
	// requests that ask for no timeout at all. 0 leaves both unbounded.
	MaxTimeout time.Duration
}

func (o *ServerOptions) normalize() {
	if o.MaxBatch == 0 {
		o.MaxBatch = 4096
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 8 << 20
	}
}

// Server exposes a Router over the exactsim wire protocol. The endpoint
// set matches httpapi.Server's — /v1/query, /v1/batch, /v1/warm,
// /v1/snapshot, /v1/algorithms, /v1/stats, /healthz, /readyz — so every
// existing client (httpapi.Client included) points at a fleet the way
// it pointed at one replica. /v1/stats answers the aggregated
// FleetStats (a JSON superset of ServiceStats); /v1/snapshot proxies
// the warmest replica's container, which is how a joining replica can
// clone from "the fleet" without knowing its members.
type Server struct {
	router   *Router
	opts     ServerOptions
	mux      *http.ServeMux
	draining atomic.Bool
	// panics counts handler panics this router server contained; folded
	// into the aggregated panics_recovered gauge.
	panics    atomic.Int64
	protected http.Handler
}

// NewServer wraps r. The caller keeps ownership of r (and closes it).
func NewServer(r *Router, opts ServerOptions) *Server {
	opts.normalize()
	s := &Server{router: r, opts: opts, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/query/stream", s.handleQueryStream)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/warm", s.handleWarm)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	// Same containment contract as httpapi.Server: a router handler
	// panic answers CodeInternal and bumps a gauge; the daemon survives.
	s.protected = httpapi.Recovered(s.mux, func(v any, stack []byte) {
		s.panics.Add(1)
	})
	return s
}

// Router returns the wrapped router (for stats, membership, Close).
func (s *Server) Router() *Router { return s.router }

// SetDraining flips the readiness gate: while draining, /readyz answers
// 503 so an upstream balancer stops sending new traffic, while
// in-flight queries (and /healthz liveness) are untouched.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.protected.ServeHTTP(w, r)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var qr httpapi.QueryRequest
	if e := s.decode(w, r, &qr); e != nil {
		writeJSON(w, httpapi.StatusOf(e), exactsim.Response{Err: e})
		return
	}
	ctx, cancel := s.requestContext(r.Context(), qr.TimeoutMillis)
	defer cancel()
	// Expired on arrival: answer before burning a candidate walk or a
	// wire attempt (same contract as httpapi.Server and the Service).
	if e := expiredOnArrival(ctx); e != nil {
		writeJSON(w, httpapi.StatusOf(e), exactsim.Response{Request: qr.Body, Err: e})
		return
	}
	// A success is relayed as the replica wrote it, so the answer crosses
	// this hop without a decode or a re-encode.
	body, resp := s.router.relay(ctx, qr.Body)
	if body == nil {
		writeJSON(w, httpapi.StatusOf(resp.Err), resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// handleQueryStream forwards one query as an NDJSON refinement stream
// from whichever replica the router picks; the terminal record (final:
// true) matches what POST /v1/query through the router would answer.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var qr httpapi.QueryRequest
	if e := s.decode(w, r, &qr); e != nil {
		writeJSON(w, httpapi.StatusOf(e), exactsim.Response{Err: e})
		return
	}
	ctx, cancel := s.requestContext(r.Context(), qr.TimeoutMillis)
	defer cancel()
	if e := expiredOnArrival(ctx); e != nil {
		writeJSON(w, httpapi.StatusOf(e), exactsim.Response{Request: qr.Body, Err: e})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	resp := s.router.QueryStream(ctx, qr.Body, func(rec exactsim.Response) {
		enc.Encode(httpapi.StreamRecord{Response: rec})
		if flusher != nil {
			flusher.Flush()
		}
	})
	enc.Encode(httpapi.StreamRecord{Response: resp, Final: true})
}

// expiredOnArrival reports a context already dead at tier entry as the
// protocol error to answer with (nil while budget remains).
func expiredOnArrival(ctx context.Context) *exactsim.Error {
	if err := ctx.Err(); err != nil {
		return exactsim.ToError(err)
	}
	return nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var br httpapi.BatchRequest
	if e := s.decode(w, r, &br); e != nil {
		writeJSON(w, httpapi.StatusOf(e), exactsim.Response{Err: e})
		return
	}
	if s.opts.MaxBatch > 0 && len(br.Body.Requests) > s.opts.MaxBatch {
		e := exactsim.Errorf(exactsim.CodeInvalidArgument,
			"cluster: batch of %d exceeds the router bound %d", len(br.Body.Requests), s.opts.MaxBatch)
		writeJSON(w, httpapi.StatusOf(e), exactsim.Response{Err: e})
		return
	}
	ctx, cancel := s.requestContext(r.Context(), br.TimeoutMillis)
	defer cancel()
	if e := expiredOnArrival(ctx); e != nil {
		writeJSON(w, httpapi.StatusOf(e), exactsim.Response{Err: e})
		return
	}
	writeJSON(w, http.StatusOK, httpapi.BatchResponse{Responses: s.router.Batch(ctx, br.Body.Requests)})
}

func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	var wr httpapi.WarmRequest
	if e := s.decode(w, r, &wr); e != nil {
		writeJSON(w, httpapi.StatusOf(e), exactsim.WarmResponse{Err: e})
		return
	}
	ctx, cancel := s.requestContext(r.Context(), wr.TimeoutMillis)
	defer cancel()
	if e := expiredOnArrival(ctx); e != nil {
		writeJSON(w, httpapi.StatusOf(e), exactsim.WarmResponse{Err: e})
		return
	}
	resp := s.router.Warm(ctx, wr.Body)
	writeJSON(w, httpapi.StatusOf(resp.Err), resp)
}

// handleSnapshot streams a snapshot container from the warmest healthy
// replica (the one with the most diag-index bytes resident), headers
// passed through — so `exactsimd -clone-from <router>` bootstraps a new
// replica without naming a peer.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	b := s.router.warmestBackend()
	if b == nil {
		e := exactsim.Errorf(exactsim.CodeUnavailable, "cluster: no healthy backends")
		writeJSON(w, httpapi.StatusOf(e), exactsim.Response{Err: e})
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		strings.TrimRight(b.url, "/")+"/v1/snapshot", nil)
	if err != nil {
		e := exactsim.ToError(err)
		writeJSON(w, httpapi.StatusOf(e), exactsim.Response{Err: e})
		return
	}
	res, err := s.router.httpClient().Do(req)
	if err != nil {
		e := exactsim.Errorf(exactsim.CodeUnavailable, "cluster: %s: %v", b.url, err)
		writeJSON(w, httpapi.StatusOf(e), exactsim.Response{Err: e})
		return
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if epoch := res.Header.Get("X-Exactsim-Graph-Epoch"); epoch != "" {
		w.Header().Set("X-Exactsim-Graph-Epoch", epoch)
	}
	w.WriteHeader(res.StatusCode)
	// A copy failure mid-stream leaves a truncated body; the container
	// checksum fails on the client side, same as the single-replica path.
	io.Copy(w, res.Body)
}

// handleAlgorithms re-serves the capability/cost surface of the first
// healthy replica — the fleet serves whatever its members serve, and
// replicas run the same registry, so one member speaks for all. The
// per-backend client caches the response, so steady-state scrapes cost
// no upstream round trip.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	for _, b := range s.router.snapshot() {
		if !b.healthy.Load() {
			continue
		}
		ar, err := b.client.AlgorithmsInfo(r.Context())
		if err != nil {
			continue
		}
		writeJSON(w, http.StatusOK, ar)
		return
	}
	e := exactsim.Errorf(exactsim.CodeUnavailable, "cluster: no healthy backends")
	writeJSON(w, httpapi.StatusOf(e), exactsim.Response{Err: e})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	fs := s.router.Stats()
	fs.PanicsRecovered += s.panics.Load()
	writeJSON(w, http.StatusOK, fs)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("ready") == "1" {
		s.handleReadyz(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz reports whether the router can usefully take traffic:
// not draining, and at least one healthy replica behind it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
	case s.router.Stats().HealthyBackends == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "no healthy backends\n")
	default:
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	}
}

func (s *Server) requestContext(ctx context.Context, timeoutMillis int64) (context.Context, context.CancelFunc) {
	timeout := time.Duration(timeoutMillis) * time.Millisecond
	if s.opts.MaxTimeout > 0 && (timeout <= 0 || timeout > s.opts.MaxTimeout) {
		timeout = s.opts.MaxTimeout
	}
	if timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) *exactsim.Error {
	body := r.Body
	if s.opts.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	if err := json.NewDecoder(body).Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return exactsim.Errorf(exactsim.CodeInvalidArgument,
				"cluster: body exceeds %d bytes", tooLarge.Limit)
		}
		return exactsim.Errorf(exactsim.CodeInvalidArgument, "cluster: bad request body: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// warmestBackend picks the healthy replica with the most diag-index
// bytes resident — the best clone source for a joiner.
func (r *Router) warmestBackend() *backend {
	var best *backend
	var bestBytes int64 = -1
	for _, b := range r.snapshot() {
		if !b.healthy.Load() {
			continue
		}
		var resident int64
		if st := b.stats.Load(); st != nil {
			resident = st.DiagResidentBytes
		}
		if resident > bestBytes {
			best, bestBytes = b, resident
		}
	}
	return best
}

// httpClient is the raw client used for proxied byte streams (the
// snapshot path bypasses httpapi.Client so headers can be forwarded
// before the body starts).
func (r *Router) httpClient() *http.Client {
	if r.opts.HTTPClient != nil {
		return r.opts.HTTPClient
	}
	return httpapi.SharedClient()
}
