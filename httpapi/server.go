package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	exactsim "github.com/exactsim/exactsim"
)

// ServerOptions bounds what one HTTP request may cost. The zero value is
// usable.
type ServerOptions struct {
	// MaxBatch caps the request count of one /v1/batch call. 0 selects
	// 4096; negative removes the bound.
	MaxBatch int
	// MaxBodyBytes caps a request body. 0 selects 8 MiB; negative
	// removes the bound.
	MaxBodyBytes int64
	// MaxTimeout clamps client-requested timeout_ms values, and bounds
	// requests that ask for no timeout at all. 0 leaves both unbounded
	// (the Service's DefaultTimeout still applies).
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

// Server exposes one exactsim.Service over the HTTP query protocol. It is
// an http.Handler; mount it directly or under a prefix of your own mux.
type Server struct {
	svc  *exactsim.Service
	opts ServerOptions
	mux  *http.ServeMux
	// draining gates readiness only: while set, /readyz answers 503 so
	// balancers stop routing here, but in-flight and even new queries
	// still succeed — the drain window is for the fleet to notice, not
	// a hard door.
	draining atomic.Bool
	// panics counts handler panics this server swallowed (see Recovered);
	// folded into the panics_recovered gauge /v1/stats reports, alongside
	// the Service's own worker-level count.
	panics    atomic.Int64
	lastPanic atomic.Pointer[string]
	protected http.Handler
}

// NewServer wraps svc. The caller keeps ownership of svc (and closes it);
// a request arriving after Close answers with code "closed" / 503.
func NewServer(svc *exactsim.Service, opts ServerOptions) *Server {
	opts.normalize()
	s := &Server{svc: svc, opts: opts, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/query/stream", s.handleQueryStream)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/warm", s.handleWarm)
	// Registered for both verbs: semantically it is a download (GET, and
	// what a bare `curl -o` sends), but POST-only clients from the first
	// cut of this endpoint keep working.
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.protected = Recovered(s.mux, func(v any, stack []byte) {
		s.panics.Add(1)
		msg := fmt.Sprintf("panic: %v\n%s", v, stack)
		s.lastPanic.Store(&msg)
	})
	return s
}

// Recovered wraps next so a handler panic answers as a CodeInternal
// protocol error instead of killing the connection (and, with
// http.Server's default recovery absent, the process). http.ErrAbortHandler
// re-panics: it is the sanctioned way to abort a response and net/http
// handles it quietly. If the handler already wrote part of a response the
// error envelope lands after those bytes — clients see a malformed body
// and treat it as a transport failure, which is the retryable outcome we
// want. onPanic (may be nil) observes the recovered value and stack.
func Recovered(next http.Handler, onPanic func(v any, stack []byte)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler { //nolint:errorlint // sentinel compared by identity, per net/http docs
				panic(v)
			}
			if onPanic != nil {
				onPanic(v, debug.Stack())
			}
			e := exactsim.Errorf(exactsim.CodeInternal, "httpapi: handler panic: %v", v)
			writeJSON(w, StatusOf(e), exactsim.Response{Err: e})
		}()
		next.ServeHTTP(w, r)
	})
}

// Service returns the wrapped service (for stats, updates, Close).
func (s *Server) Service() *exactsim.Service { return s.svc }

// SetDraining flips the readiness gate (see /readyz): a draining server
// keeps answering queries and /healthz liveness, but tells routers to
// send new traffic elsewhere — the graceful half of a rolling restart.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports the current readiness gate.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.protected.ServeHTTP(w, r)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var qr QueryRequest
	if e := s.decode(w, r, &qr); e != nil {
		writeJSON(w, StatusOf(e), exactsim.Response{Err: e})
		return
	}
	ctx, cancel := s.queryContext(r.Context(), &qr)
	defer cancel()
	// Expired on arrival (a sub-millisecond wire budget, or a caller gone
	// before decode finished): answer without touching the worker pool.
	if e := expiredOnArrival(ctx); e != nil {
		writeJSON(w, StatusOf(e), exactsim.Response{Request: qr.Body, Err: e})
		return
	}
	resp := s.svc.Query(ctx, qr.Body)
	writeResponse(w, &resp)
}

// writeResponse answers one /v1/query through the answer codec, with the
// bytes writeJSON would write. The header is set before the encoding
// starts, as writeJSON sets it before encoding: the first touch of w is
// where a wrapping handler sees the Service's work end.
func writeResponse(w http.ResponseWriter, resp *exactsim.Response) {
	w.Header().Set("Content-Type", "application/json")
	status := StatusOf(resp.Err)
	buf := encodeBuffers.Get().(*[]byte)
	b, err := appendResponse((*buf)[:0], resp)
	if err != nil {
		// Only a NaN or infinite float fails to encode: answer with a
		// coded error rather than a 200 without a body.
		e := exactsim.Errorf(exactsim.CodeInternal, "httpapi: encoding answer: %v", err)
		status = StatusOf(e)
		b, _ = appendResponse(b[:0], &exactsim.Response{Err: e})
	}
	w.WriteHeader(status)
	w.Write(b)
	*buf = b
	encodeBuffers.Put(buf)
}

// handleQueryStream answers one query as NDJSON refinement records
// (application/x-ndjson): intermediate accuracy tiers as they complete,
// then the terminal record flagged "final" — bit-identical to what the
// non-streaming endpoint would have answered. The 200 status commits
// before computation starts, so errors after the first byte travel in
// the terminal record's error field, not the status line.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var qr QueryRequest
	if e := s.decode(w, r, &qr); e != nil {
		writeJSON(w, StatusOf(e), exactsim.Response{Err: e})
		return
	}
	ctx, cancel := s.queryContext(r.Context(), &qr)
	defer cancel()
	if e := expiredOnArrival(ctx); e != nil {
		writeJSON(w, StatusOf(e), exactsim.Response{Request: qr.Body, Err: e})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	// QueryStream calls emit sequentially from a worker goroutine and
	// only returns after the last call, so the encoder is never written
	// concurrently.
	resp := s.svc.QueryStream(ctx, qr.Body, func(refinement exactsim.Response) {
		enc.Encode(StreamRecord{Response: refinement})
		if flusher != nil {
			flusher.Flush()
		}
	})
	enc.Encode(StreamRecord{Response: resp, Final: true})
}

// expiredOnArrival reports a context already dead at tier entry as the
// protocol error to answer with (nil while budget remains). Each tier
// checks before doing work, so a query whose deadline has already passed
// is bounced immediately — the deadline-propagation contract.
func expiredOnArrival(ctx context.Context) *exactsim.Error {
	if err := ctx.Err(); err != nil {
		return exactsim.ToError(err)
	}
	return nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var br BatchRequest
	if e := s.decode(w, r, &br); e != nil {
		writeJSON(w, StatusOf(e), exactsim.Response{Err: e})
		return
	}
	if s.opts.MaxBatch > 0 && len(br.Body.Requests) > s.opts.MaxBatch {
		e := exactsim.Errorf(exactsim.CodeInvalidArgument,
			"httpapi: batch of %d exceeds the server bound %d", len(br.Body.Requests), s.opts.MaxBatch)
		writeJSON(w, StatusOf(e), exactsim.Response{Err: e})
		return
	}
	ctx, cancel := s.requestContext(r.Context(), br.TimeoutMillis)
	defer cancel()
	if e := expiredOnArrival(ctx); e != nil {
		writeJSON(w, StatusOf(e), exactsim.Response{Err: e})
		return
	}
	// Per-request failures live inside each Response; the batch call
	// itself is a 200.
	writeJSON(w, http.StatusOK, BatchResponse{Responses: s.svc.Batch(ctx, br.Body.Requests)})
}

func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	var wr WarmRequest
	if e := s.decode(w, r, &wr); e != nil {
		writeJSON(w, StatusOf(e), exactsim.WarmResponse{Err: e})
		return
	}
	// MaxBatch bounds the warm fan-out the same way it bounds batch
	// requests — warming is a batch in disguise. The effective fan-out
	// mirrors Service.Warm's source resolution: explicit Sources win,
	// otherwise TopDegree, otherwise the service's default hub count.
	if s.opts.MaxBatch > 0 {
		fanout := len(wr.Body.Sources)
		if fanout == 0 {
			fanout = wr.Body.TopDegree
			if fanout <= 0 {
				fanout = exactsim.DefaultWarmTopDegree
			}
		}
		if fanout > s.opts.MaxBatch {
			e := exactsim.Errorf(exactsim.CodeInvalidArgument,
				"httpapi: warm fan-out of %d sources exceeds the server bound %d", fanout, s.opts.MaxBatch)
			writeJSON(w, StatusOf(e), exactsim.WarmResponse{Err: e})
			return
		}
	}
	ctx, cancel := s.requestContext(r.Context(), wr.TimeoutMillis)
	defer cancel()
	if e := expiredOnArrival(ctx); e != nil {
		writeJSON(w, StatusOf(e), exactsim.WarmResponse{Err: e})
		return
	}
	resp := s.svc.Warm(ctx, wr.Body)
	writeJSON(w, StatusOf(resp.Err), resp)
}

// handleSnapshot streams the service's current graph generation as a
// snapshot container (application/octet-stream): the admin/fleet path
// by which a fresh instance clones a warm peer's graph + diagonal
// sample index instead of re-deriving them. The epoch travels in
// X-Exactsim-Graph-Epoch; save the body to disk and boot with
// `exactsimd -snapshot` (or exactsim.OpenSnapshot).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &countingWriter{w: w}
	// The epoch header is set by the pinned-generation hook — after the
	// snapshot decides which generation it streams (an Update can race
	// the request), before the first body byte flushes the headers.
	err := s.svc.SnapshotTo(cw, func(epoch uint64) {
		w.Header().Set("X-Exactsim-Graph-Epoch", strconv.FormatUint(epoch, 10))
	})
	if err != nil {
		if cw.n == 0 {
			// Nothing streamed yet (a closed service fails up front): the
			// protocol error envelope can still answer.
			e := exactsim.ToError(err)
			h := w.Header()
			h.Del("Content-Type")
			h.Del("X-Exactsim-Graph-Epoch")
			writeJSON(w, StatusOf(e), exactsim.Response{Err: e})
			return
		}
		// Mid-stream failure: the status is gone; the truncated body
		// fails its container checksum on the client side.
	}
}

// countingWriter tracks whether any response bytes left the building,
// which decides if an error can still change the status line.
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	// Static registry caps joined with the live planner's calibrated cost
	// rows — the introspection surface remote planners decide from.
	estimates := make(map[string]exactsim.PlanEstimate)
	for _, e := range s.svc.PlanEstimates() {
		estimates[e.Name] = e
	}
	caps := exactsim.AlgorithmCaps()
	methods := make([]MethodInfo, 0, len(caps))
	for _, c := range caps {
		mi := MethodInfo{MethodCaps: c}
		if e, ok := estimates[c.Name]; ok {
			mi.CostUnits, mi.CostNanos = e.Units, e.Nanos
		}
		methods = append(methods, mi)
	}
	writeJSON(w, http.StatusOK, AlgorithmsResponse{
		Algorithms: exactsim.Algorithms(),
		Default:    s.svc.DefaultAlgorithm(),
		Methods:    methods,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	// Handler-level panics are this server's, not the Service's; fold
	// them into the same gauge so one number answers "did anything blow
	// up in this process".
	st.PanicsRecovered += s.panics.Load()
	if p := s.lastPanic.Load(); p != nil && st.LastPanic == "" {
		st.LastPanic = firstLine(*p)
	}
	writeJSON(w, http.StatusOK, st)
}

// firstLine trims a captured panic-with-stack down to its headline; the
// stats wire format wants a gauge-sized string, not a traceback.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// handleHealthz is pure liveness — the process is up and serving HTTP.
// ?ready=1 upgrades the probe to the readiness view for callers whose
// probe config can only vary the path's query string.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("ready") == "1" {
		s.handleReadyz(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz is readiness — distinct from liveness so a replica can be
// drained (stop receiving new fleet traffic) without being killed while
// in-flight queries finish. 503 while draining, closed, or before a
// graph generation is installed; 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
	case s.svc.Closed():
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "closed\n")
	case s.svc.Epoch() == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "no graph epoch\n")
	default:
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	}
}

// requestContext maps the wire timeout onto a context deadline, clamped
// by MaxTimeout.
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

// queryContext is requestContext for one query or stream. The wire
// deadline counts from handler entry, so it falls at or after the
// caller's own; a best-so-far answer cut at that moment would reach a
// caller that has already given up. A request that accepts one
// (allow_partial) is therefore cut a tenth of its wire budget early,
// leaving that tenth for the reply. Strict requests keep their full
// budget.
func (s *Server) queryContext(ctx context.Context, qr *QueryRequest) (context.Context, context.CancelFunc) {
	ms := qr.TimeoutMillis
	if qr.Body.AllowPartial {
		ms -= ms / 10
	}
	return s.requestContext(ctx, ms)
}

// decode reads one JSON body under the size bound. A failure is reported
// as a protocol error so clients see the same {code, message} shape on
// every path.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) *exactsim.Error {
	body := r.Body
	if s.opts.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	// Unknown fields are ignored deliberately: /v1 clients newer than the
	// server must keep working when optional fields are added.
	if err := json.NewDecoder(body).Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return exactsim.Errorf(exactsim.CodeInvalidArgument,
				"httpapi: body exceeds %d bytes", tooLarge.Limit)
		}
		return exactsim.Errorf(exactsim.CodeInvalidArgument, "httpapi: bad request body: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding a fully materialized response cannot fail except for a
	// broken connection, which has no recovery anyway.
	json.NewEncoder(w).Encode(v)
}
