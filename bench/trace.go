package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded by code in this package, around a
// call into one layer's public API; "service" and "core.*" spans are
// pseudo-spans placed from timestamps and durations the layer reports.
const (
	spanRequest  = "request"       // the caller: due time → answer in hand
	spanClient   = "http.client"   // httpapi.Client round trip, through response-body close
	spanRouter   = "router"        // cluster.Server handler
	spanHop      = "router.hop"    // one router → replica attempt (retries and hedges included)
	spanServer   = "http.server"   // httpapi.Server handler
	spanService  = "service"       // Service.Query
	spanForward  = "core.forward"  // kernel phases, from core.Result
	spanDiag     = "core.diag"     //
	spanBackward = "core.backward" //
)

// Headers carrying the request ID and the parent span across each hop.
const (
	hdrRequest = "X-Bench-Request"
	hdrParent  = "X-Bench-Parent"
)

// span is one timed interval of one request, as written to the spans file.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the response body size a round-trip span carried.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op and no wrapper is installed.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(req, id, parent uint64, name string, start, end time.Time) {
	t.add(span{Req: req, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far; hedge losers may still be
// recording while a window's results are read.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// spanRef names the span a context belongs to.
type spanRef struct{ req, id uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// sampled reports whether a traced run traces operation i. Every other
// operation goes untraced, so the run measures its own tracing overhead
// from two interleaved halves that saw the same host and the same load.
func sampled(i int) bool { return i%2 == 0 }

// root opens the root span of operation i, when sampled; end closes it.
// The root starts at the request's due time, so generator lag lands in
// the caller's self time. Without a root span no wrapper records anything
// for the request.
func (t *tracer) root(ctx context.Context, i int, due time.Time) (context.Context, func()) {
	if t == nil || !sampled(i) {
		return ctx, func() {}
	}
	id := t.newID()
	return withSpan(ctx, spanRef{req: id, id: id}), func() {
		t.record(id, id, 0, spanRequest, due, time.Now())
	}
}

// transport wraps next so every round trip made on behalf of a traced
// request records a span and carries the request ID to the next hop.
// Requests without a span (the router's health polls) pass through.
func (t *tracer) transport(next http.RoundTripper, name string) http.RoundTripper {
	if t == nil {
		return next
	}
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		ref, ok := spanFrom(req.Context())
		if !ok {
			return next.RoundTrip(req)
		}
		id := t.newID()
		req = req.Clone(req.Context())
		req.Header.Set(hdrRequest, strconv.FormatUint(ref.req, 10))
		req.Header.Set(hdrParent, strconv.FormatUint(id, 10))
		start := time.Now()
		resp, err := next.RoundTrip(req)
		if err != nil {
			t.record(ref.req, id, ref.id, name, start, time.Now())
			return nil, err
		}
		// The span ends when the caller closes the body: httpapi.Client
		// decodes before closing, so the client-side decode is part of
		// the hop.
		resp.Body = &closeHook{ReadCloser: resp.Body, hook: func(n int64) {
			t.add(span{Req: ref.req, ID: id, Parent: ref.id, Name: name,
				Start: int64(start.Sub(t.epoch)), End: int64(time.Since(t.epoch)), Bytes: n})
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// closeHook counts the body bytes read and reports them on the first Close.
type closeHook struct {
	io.ReadCloser
	n    int64
	once sync.Once
	hook func(n int64)
}

func (c *closeHook) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(func() { c.hook(c.n) })
	return err
}

// handler wraps a server so each traced request records a span. With
// service set it also records the Service.Query pseudo-span inside it:
// httpapi.Server reads the request body, calls Service.Query, and only
// then touches the response headers, so the interval from the last body
// read to the first header access is the Service call.
func (t *tracer) handler(next http.Handler, name string, service bool) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseUint(r.Header.Get(hdrRequest), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		id := t.newID()
		start := time.Now()
		body := &readClock{ReadCloser: r.Body}
		r.Body = body
		hw := &headerClock{ResponseWriter: w}
		next.ServeHTTP(hw, r.WithContext(withSpan(r.Context(), spanRef{req: req, id: id})))
		t.record(req, id, parent, name, start, time.Now())
		if service && !body.last.IsZero() && hw.first.After(body.last) {
			t.record(req, t.newID(), id, spanService, body.last, hw.first)
		}
	})
}

// readClock remembers when the last body read returned.
type readClock struct {
	io.ReadCloser
	last time.Time
}

func (r *readClock) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.last = time.Now()
	return n, err
}

// headerClock remembers the first touch of the response.
type headerClock struct {
	http.ResponseWriter
	first time.Time
}

func (h *headerClock) touch() {
	if h.first.IsZero() {
		h.first = time.Now()
	}
}

func (h *headerClock) Header() http.Header {
	h.touch()
	return h.ResponseWriter.Header()
}

func (h *headerClock) WriteHeader(code int) {
	h.touch()
	h.ResponseWriter.WriteHeader(code)
}

func (h *headerClock) Write(p []byte) (int, error) {
	h.touch()
	return h.ResponseWriter.Write(p)
}

// phaseSpans names the kernel phases in execution order.
var phaseSpans = [3]string{spanForward, spanDiag, spanBackward}

// inProcess records the spans of an in-process Service or Querier call:
// the call itself (when name is set) and the kernel phases it reports,
// placed back to back at the end of the call.
func (t *tracer) inProcess(ctx context.Context, name string, start, end time.Time, phases []time.Duration) {
	ref, ok := spanFrom(ctx)
	if t == nil || !ok {
		return
	}
	parent := ref.id
	if name != "" {
		parent = t.newID()
		t.record(ref.req, parent, ref.id, name, start, end)
	}
	at := end
	for i := len(phases) - 1; i >= 0; i-- {
		from := at.Add(-phases[i])
		t.record(ref.req, t.newID(), parent, phaseSpans[i], from, at)
		at = from
	}
}

// requestTimes is one request's span time split: self time per span name
// (a span's duration minus the part its children cover), and the root's
// duration.
type requestTimes struct {
	self  map[string]time.Duration
	total map[string]time.Duration
	root  time.Duration
}

// breakdown computes the self-time split of every traced request.
func (t *tracer) breakdown() []requestTimes {
	byReq := map[uint64][]span{}
	for _, s := range t.snapshot() {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	reqs := make([]uint64, 0, len(byReq))
	for r := range byReq {
		reqs = append(reqs, r)
	}
	slices.Sort(reqs)
	out := make([]requestTimes, 0, len(reqs))
	for _, r := range reqs {
		spans := byReq[r]
		rt := requestTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}}
		for _, s := range spans {
			var kids []span
			for _, c := range spans {
				if c.Parent == s.ID {
					kids = append(kids, c)
				}
			}
			rt.self[s.Name] += s.dur() - covered(s, kids)
			rt.total[s.Name] += s.dur()
			if s.Name == spanRequest {
				rt.root = s.dur()
			}
		}
		if rt.root > 0 {
			out = append(out, rt)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total, end int64
	end = parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}

// write dumps every span as one JSON object per line, ordered by request
// and start time.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	spans := t.snapshot()
	slices.SortFunc(spans, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.Req, b.Req), cmp.Compare(a.Start, b.Start))
	})
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
