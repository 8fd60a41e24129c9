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

// maxBodyBytes caps a request body: a batch at the default MaxBatch bound
// fits many times over.
const maxBodyBytes = 8 << 20

// ServerOptions bounds what one HTTP request may cost. The zero value is
// usable.
type ServerOptions struct {
	// MaxBatch caps the request count of one /v1/batch call and the
	// source fan-out of one /v1/warm call. 0 selects 4096; negative
	// removes the bound.
	MaxBatch int
	// MaxTimeout clamps client-requested timeout_ms values, and bounds
	// requests that ask for no timeout at all. 0 leaves both unbounded
	// (a Service's DefaultTimeout still applies).
	MaxTimeout time.Duration
}

// Backend is what a Server serves: the part of the protocol in which one
// replica and a fleet router differ. Everything else is the Server's, for
// both: the routes, the body bound and decoding, the wire deadline and
// its reply margin, the batch and warm bounds, the error envelopes,
// panic containment and the draining gate. Methods are called
// concurrently.
type Backend interface {
	// Answer answers one query. A non-nil body is a 200 answer to relay
	// as it is; otherwise resp is encoded.
	Answer(ctx context.Context, req exactsim.Request) (body []byte, resp exactsim.Response)
	// QueryStream answers one query, passing each refinement to emit in
	// turn; it returns the terminal answer after its last call to emit.
	QueryStream(ctx context.Context, req exactsim.Request, emit func(exactsim.Response)) exactsim.Response
	// Batch answers many queries, responses aligned with reqs by index.
	Batch(ctx context.Context, reqs []exactsim.Request) []exactsim.Response
	// Warm pre-computes sources; see exactsim.Service.Warm.
	Warm(ctx context.Context, wr exactsim.WarmRequest) exactsim.WarmResponse
	// StreamSnapshot writes a snapshot container to w, with the graph
	// epoch in the X-Exactsim-Graph-Epoch header. An error returned
	// before the first body byte is answered as a protocol error; after
	// it, the truncated body fails its checksum on the client side.
	StreamSnapshot(ctx context.Context, w http.ResponseWriter) *exactsim.Error
	// AlgorithmsDoc is the /v1/algorithms document.
	AlgorithmsDoc(ctx context.Context) (AlgorithmsResponse, *exactsim.Error)
	// StatsDoc is the /v1/stats document and the ServiceStats inside it,
	// into which the Server folds its own handler panics.
	StatsDoc() (doc any, st *exactsim.ServiceStats)
	// NotReady says why the backend should get no new traffic, or ""
	// when it should.
	NotReady() string
}

// Server exposes a Backend over the HTTP query protocol. It is an
// http.Handler; mount it directly or under a prefix of your own mux.
type Server struct {
	b    Backend
	opts ServerOptions
	// draining gates readiness only: while set, /readyz answers 503 so
	// balancers stop routing here, but in-flight and even new queries
	// still succeed — the drain window is for the fleet to notice, not
	// a hard door.
	draining atomic.Bool
	// panics counts handler panics this server swallowed (see Recovered);
	// folded into the panics_recovered gauge /v1/stats reports, alongside
	// the backend's own count.
	panics    atomic.Int64
	lastPanic atomic.Pointer[string]
	protected http.Handler
}

// NewServer serves svc. The caller keeps ownership of svc (and closes
// it); a request arriving after Close answers with code "closed" / 503.
func NewServer(svc *exactsim.Service, opts ServerOptions) *Server {
	return NewBackendServer(service{svc}, opts)
}

// NewBackendServer serves b. The caller keeps ownership of b.
func NewBackendServer(b Backend, opts ServerOptions) *Server {
	if opts.MaxBatch == 0 {
		opts.MaxBatch = 4096
	}
	s := &Server{b: b, opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/query/stream", s.handleQueryStream)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/warm", s.handleWarm)
	// Registered for both verbs: semantically it is a download (GET, and
	// what a bare `curl -o` sends), but POST-only clients from the first
	// cut of this endpoint keep working.
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.protected = Recovered(mux, func(v any, stack []byte) {
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
			writeError(w, exactsim.Errorf(exactsim.CodeInternal, "httpapi: handler panic: %v", v))
		}()
		next.ServeHTTP(w, r)
	})
}

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
	if e := decode(w, r, &qr); e != nil {
		writeError(w, e)
		return
	}
	ctx, cancel := s.queryContext(r.Context(), &qr)
	defer cancel()
	// Expired on arrival (a sub-millisecond wire budget, or a caller gone
	// before decode finished): answer without touching the worker pool.
	if e := exactsim.Expired(ctx); e != nil {
		writeJSON(w, StatusOf(e), exactsim.Response{Request: qr.Body, Err: e})
		return
	}
	// A relayed success crosses this hop without a decode or a re-encode.
	body, resp := s.b.Answer(ctx, qr.Body)
	if body == nil {
		writeResponse(w, &resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// writeResponse answers one /v1/query through the answer codec, with the
// bytes writeJSON would write. The header is set before the encoding
// starts, as writeJSON sets it before encoding: the first touch of w is
// where a wrapping handler sees the backend's work end.
func writeResponse(w http.ResponseWriter, resp *exactsim.Response) {
	w.Header().Set("Content-Type", "application/json")
	writeAnswer(w, resp, nil)
}

// writeAnswer writes resp through the answer codec: as a /v1/query
// answer with the status of its error, or, when final is non-nil, as one
// stream record after the stream's status. Only a NaN or infinite float
// fails to encode: such an answer is replaced by a coded error, still
// echoing the request, rather than a 200 without a body.
func writeAnswer(w http.ResponseWriter, resp *exactsim.Response, final *bool) {
	buf := encodeBuffers.Get().(*[]byte)
	b, err := appendAnswer((*buf)[:0], resp, final)
	if err != nil {
		resp = &exactsim.Response{Request: resp.Request,
			Err: exactsim.Errorf(exactsim.CodeInternal, "httpapi: encoding answer: %v", err)}
		b, _ = appendAnswer(b[:0], resp, final)
	}
	if final == nil {
		w.WriteHeader(StatusOf(resp.Err))
	}
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
	if e := decode(w, r, &qr); e != nil {
		writeError(w, e)
		return
	}
	ctx, cancel := s.queryContext(r.Context(), &qr)
	defer cancel()
	if e := exactsim.Expired(ctx); e != nil {
		writeJSON(w, StatusOf(e), exactsim.Response{Request: qr.Body, Err: e})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// QueryStream calls emit sequentially and only returns after the last
	// call, so records are never written concurrently.
	refining, final := false, true
	resp := s.b.QueryStream(ctx, qr.Body, func(refinement exactsim.Response) {
		writeAnswer(w, &refinement, &refining)
		if flusher != nil {
			flusher.Flush()
		}
	})
	writeAnswer(w, &resp, &final)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var br BatchRequest
	if e := decode(w, r, &br); e != nil {
		writeError(w, e)
		return
	}
	if s.opts.MaxBatch > 0 && len(br.Body.Requests) > s.opts.MaxBatch {
		writeError(w, exactsim.Errorf(exactsim.CodeInvalidArgument,
			"httpapi: batch of %d exceeds the server bound %d", len(br.Body.Requests), s.opts.MaxBatch))
		return
	}
	ctx, cancel := s.requestContext(r.Context(), br.TimeoutMillis)
	defer cancel()
	if e := exactsim.Expired(ctx); e != nil {
		writeError(w, e)
		return
	}
	// Per-request failures live inside each Response; the batch call
	// itself is a 200.
	writeJSON(w, http.StatusOK, BatchResponse{Responses: s.b.Batch(ctx, br.Body.Requests)})
}

func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	var wr WarmRequest
	if e := decode(w, r, &wr); e != nil {
		writeError(w, e)
		return
	}
	// MaxBatch bounds the warm fan-out the same way it bounds batch
	// requests — warming is a batch in disguise.
	if n := wr.Body.Fanout(); s.opts.MaxBatch > 0 && n > s.opts.MaxBatch {
		writeError(w, exactsim.Errorf(exactsim.CodeInvalidArgument,
			"httpapi: warm fan-out of %d sources exceeds the server bound %d", n, s.opts.MaxBatch))
		return
	}
	ctx, cancel := s.requestContext(r.Context(), wr.TimeoutMillis)
	defer cancel()
	if e := exactsim.Expired(ctx); e != nil {
		writeError(w, e)
		return
	}
	resp := s.b.Warm(ctx, wr.Body)
	writeJSON(w, StatusOf(resp.Err), resp)
}

// handleSnapshot streams a snapshot container of the current graph
// generation (application/octet-stream): the admin/fleet path by which a
// fresh instance clones a warm peer's graph + diagonal sample index
// instead of re-deriving them. The epoch travels in
// X-Exactsim-Graph-Epoch; save the body to disk and boot with
// `exactsimd -snapshot` (or exactsim.OpenSnapshot).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if e := s.b.StreamSnapshot(r.Context(), w); e != nil {
		// Nothing streamed yet: the protocol error envelope can still
		// answer, without the epoch of a generation it did not send.
		w.Header().Del(epochHeader)
		writeError(w, e)
	}
}

// epochHeader carries a snapshot's graph epoch.
const epochHeader = "X-Exactsim-Graph-Epoch"

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	doc, e := s.b.AlgorithmsDoc(r.Context())
	if e != nil {
		writeError(w, e)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	doc, st := s.b.StatsDoc()
	// Handler-level panics are this server's, not the backend's; fold
	// them into the same gauge so one number answers "did anything blow
	// up in this process".
	st.PanicsRecovered += s.panics.Load()
	if p := s.lastPanic.Load(); p != nil && st.LastPanic == "" {
		st.LastPanic = firstLine(*p)
	}
	writeJSON(w, http.StatusOK, doc)
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

// handleReadyz is readiness — distinct from liveness so a server can be
// drained (stop receiving new fleet traffic) without being killed while
// in-flight queries finish. 503 while draining or while the backend says
// why not (see Backend.NotReady); 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	why := "draining"
	if !s.draining.Load() {
		why = s.b.NotReady()
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if why == "" {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, why+"\n")
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
// leaving that tenth for the reply. Every HTTP tier takes its tenth of
// what remains, so behind a router a replica's cut falls before the
// router's. Strict requests keep their full budget.
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
func decode(w http.ResponseWriter, r *http.Request, into any) *exactsim.Error {
	// Unknown fields are ignored deliberately: /v1 clients newer than the
	// server must keep working when optional fields are added.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return exactsim.Errorf(exactsim.CodeInvalidArgument,
				"httpapi: body exceeds %d bytes", tooLarge.Limit)
		}
		return exactsim.Errorf(exactsim.CodeInvalidArgument, "httpapi: bad request body: %v", err)
	}
	return nil
}

// writeError answers with a bare protocol error envelope,
// {"error":{code, message}}: the reply of a request that decoded no query
// to echo (a bad body, a batch, a handler panic) or whose route takes
// none. An echo of a request nobody sent would read as a query for
// node 0; clients fill an empty echo from their own request.
func writeError(w http.ResponseWriter, e *exactsim.Error) {
	writeJSON(w, StatusOf(e), struct {
		Err *exactsim.Error `json:"error"`
	}{e})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding a fully materialized response cannot fail except for a
	// broken connection, which has no recovery anyway.
	json.NewEncoder(w).Encode(v)
}

// service is the Backend of one replica: a Service, plus what only a
// replica serves — its planner's cost rows, its own snapshot stream and
// its own readiness.
type service struct{ *exactsim.Service }

func (s service) Answer(ctx context.Context, req exactsim.Request) ([]byte, exactsim.Response) {
	return nil, s.Query(ctx, req)
}

func (s service) StreamSnapshot(_ context.Context, w http.ResponseWriter) *exactsim.Error {
	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &countingWriter{w: w}
	// The epoch header is set by the pinned-generation hook — after the
	// snapshot decides which generation it streams (an Update can race
	// the request), before the first body byte flushes the headers.
	err := s.SnapshotTo(cw, func(epoch uint64) {
		w.Header().Set(epochHeader, strconv.FormatUint(epoch, 10))
	})
	if err != nil && cw.n == 0 {
		// A closed service fails before its first byte.
		return exactsim.ToError(err)
	}
	return nil
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

// AlgorithmsDoc joins the static registry caps with the live planner's
// calibrated cost rows — the introspection surface remote planners
// decide from.
func (s service) AlgorithmsDoc(context.Context) (AlgorithmsResponse, *exactsim.Error) {
	estimates := make(map[string]exactsim.PlanEstimate)
	for _, e := range s.PlanEstimates() {
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
	return AlgorithmsResponse{
		Algorithms: exactsim.Algorithms(),
		Default:    s.DefaultAlgorithm(),
		Methods:    methods,
	}, nil
}

func (s service) StatsDoc() (any, *exactsim.ServiceStats) {
	st := s.Stats()
	return &st, &st
}

// NotReady holds back a closed service, and one before its first graph
// generation is installed.
func (s service) NotReady() string {
	switch {
	case s.Closed():
		return "closed"
	case s.Epoch() == 0:
		return "no graph epoch"
	}
	return ""
}
