// Package httpapi is the HTTP transport of the exactsim query protocol:
// a Server exposing a Service over its endpoints, and a Client that
// implements the same exactsim.Querier interface the in-process engines
// do, so code written against a local graph can point at a remote daemon
// unchanged.
//
// The wire types ARE the in-process types — exactsim.Request and
// exactsim.Response serialize as-is, per-request errors travel as the
// structured {code, message} of exactsim.Error, and every response
// carries the graph epoch it was computed on. The endpoints:
//
//	POST /v1/query        one Request (+ optional timeout_ms) → Response
//	POST /v1/query/stream one Request → NDJSON refinement records, each
//	                      an exactsim.Response plus a "final" flag; the
//	                      terminal record (final: true) is bit-identical
//	                      to what POST /v1/query would have answered
//	POST /v1/batch        {"requests": [...]} → {"responses": [...]}
//	POST /v1/warm         WarmRequest → WarmResponse (pre-compute sources,
//	                      fill the result cache + diagonal sample index)
//	GET  /v1/snapshot     stream the current graph generation as a
//	                      snapshot container (graph CSR + diag index
//	                      spill; application/octet-stream) — the warm
//	                      clone / instant-restart path (POST also accepted)
//	GET  /v1/algorithms   capability surface: per-method caps + calibrated
//	                      cost rows, and the service default ("auto")
//	GET  /v1/stats        ServiceStats (counters + load-balancer gauges,
//	                      including the diagonal-index hit/resident gauges)
//	GET  /healthz         liveness probe
//
// A client-requested timeout_ms becomes a server-side context deadline,
// so a slow query is cancelled inside its computation loops and answers
// with code "deadline_exceeded" — which the Client surfaces as an error
// matching context.DeadlineExceeded, exactly like a local query would.
// See DESIGN.md §6, §13 and cmd/exactsimd.
package httpapi

import (
	"encoding/json"
	"net/http"
	"strconv"

	exactsim "github.com/exactsim/exactsim"
)

// Envelope is the one timeout envelope every POST body rides in: the
// payload's own fields serialized flat, plus the transport-only
// "timeout_ms". It replaces the three copy-pasted per-endpoint structs —
// the deadline semantics live here, once:
//
// TimeoutMillis, when positive, bounds the request server-side: the
// server derives a context deadline from it (clamped by its MaxTimeout),
// so cancellation reaches inside the algorithms' computation loops.
// The Client fills it from the caller's context deadline automatically,
// and RE-fills it on every retry with the *remaining* budget — each
// attempt (and each backoff sleep) subtracts its own dwell from the wire
// timeout instead of granting the server the original, already partly
// spent budget. That re-propagation is setTimeout, the single hook the
// client's retry loop needs.
type Envelope[T any] struct {
	// Body is the endpoint's payload; its fields serialize at the top
	// level of the JSON object, exactly as before the envelope existed.
	Body T
	// TimeoutMillis is the transport-only server-side deadline (see
	// above); 0 means "no wire-requested deadline".
	TimeoutMillis int64
}

// MarshalJSON serializes Body flat and splices "timeout_ms" into the
// same object, preserving the pre-envelope wire shape.
func (e Envelope[T]) MarshalJSON() ([]byte, error) {
	body, err := json.Marshal(e.Body)
	if err != nil {
		return nil, err
	}
	if e.TimeoutMillis <= 0 {
		return body, nil
	}
	// Every envelope payload is a struct, so body is a JSON object;
	// splice before the closing brace (comma unless the object is empty).
	out := body[:len(body)-1]
	if len(body) > 2 {
		out = append(out, ',')
	}
	out = append(out, `"timeout_ms":`...)
	out = strconv.AppendInt(out, e.TimeoutMillis, 10)
	return append(out, '}'), nil
}

// UnmarshalJSON reads the flat object into Body and extracts the
// transport-only "timeout_ms" (which Body, not declaring it, ignores). A
// negative timeout reads as 0, which is what the server makes of it
// ("none") and what MarshalJSON can write back.
func (e *Envelope[T]) UnmarshalJSON(data []byte) error {
	if err := json.Unmarshal(data, &e.Body); err != nil {
		return err
	}
	var t struct {
		TimeoutMillis int64 `json:"timeout_ms"`
	}
	if err := json.Unmarshal(data, &t); err != nil {
		return err
	}
	e.TimeoutMillis = max(t.TimeoutMillis, 0)
	return nil
}

// setTimeout is the client retry loop's deadline re-propagation hook
// (see Envelope's doc — the semantics are defined once, up there).
func (e *Envelope[T]) setTimeout(ms int64) { e.TimeoutMillis = ms }

// QueryRequest is the body of POST /v1/query and /v1/query/stream: an
// exactsim.Request plus the transport-only timeout.
type QueryRequest = Envelope[exactsim.Request]

// Batch is the payload of POST /v1/batch.
type Batch struct {
	Requests []exactsim.Request `json:"requests"`
}

// BatchRequest is the body of POST /v1/batch. TimeoutMillis bounds the
// whole batch (each response still fails individually).
type BatchRequest = Envelope[Batch]

// BatchResponse is the body answering POST /v1/batch; Responses align
// with the submitted Requests by index.
type BatchResponse struct {
	Responses []exactsim.Response `json:"responses"`
}

// WarmRequest is the body of POST /v1/warm: an exactsim.WarmRequest plus
// the transport-only timeout bounding the whole warming pass.
type WarmRequest = Envelope[exactsim.WarmRequest]

// StreamRecord is one NDJSON line of POST /v1/query/stream: a refinement
// Response (Partial, with the epsilon it achieved) or — flagged Final —
// the terminal answer, bit-identical to the non-streaming endpoint's.
// Errors travel in the terminal record's embedded error field; the HTTP
// status is committed (200) before computation starts.
type StreamRecord struct {
	exactsim.Response
	// Final marks the terminal record; exactly one per stream.
	Final bool `json:"final"`
}

// MethodInfo is one row of the /v1/algorithms capability surface: the
// registry's static capability flags plus the serving planner's
// calibrated cost estimate for this method on the current graph.
type MethodInfo struct {
	exactsim.MethodCaps
	// CostUnits is the planner cost model's work-unit count at the
	// service's base epsilon; CostNanos is its latency estimate on this
	// machine (microprobe-calibrated, refined from observed query
	// latencies). Zero when the server predates calibration.
	CostUnits float64 `json:"cost_units,omitempty"`
	CostNanos int64   `json:"cost_nanos,omitempty"`
}

// AlgorithmsResponse is the body answering GET /v1/algorithms — the
// capability/cost surface remote planners and dashboards introspect.
// The registry is static and the cost rows drift only slowly (EWMA of
// observed latencies), so clients cache the whole response per base URL.
type AlgorithmsResponse struct {
	// Algorithms lists every registry name the server accepts.
	Algorithms []string `json:"algorithms"`
	// Default answers requests with an empty algorithm field ("auto"
	// unless the server pinned a concrete method).
	Default string `json:"default"`
	// Methods carries one capability/cost row per registry name.
	Methods []MethodInfo `json:"methods,omitempty"`
}

// StatusOf maps a protocol error code onto its HTTP status. Success (nil)
// is 200; unknown codes map to 500.
func StatusOf(e *exactsim.Error) int {
	if e == nil {
		return http.StatusOK
	}
	switch e.Code {
	case exactsim.CodeInvalidArgument:
		return http.StatusBadRequest
	case exactsim.CodeNotFound:
		return http.StatusNotFound
	case exactsim.CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case exactsim.CodeCanceled:
		// 499 Client Closed Request (nginx convention): the caller went
		// away; no standard status fits better.
		return 499
	case exactsim.CodeUnavailable, exactsim.CodeClosed:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
