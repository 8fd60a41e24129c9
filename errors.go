package exactsim

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrorCode is the transport-stable error taxonomy of the query protocol.
// Codes — not Go error identities — are what crosses a process boundary;
// the *Error carrying one reconstructs the matching Go sentinel semantics
// on the far side (see Error.Is), so errors.Is(err, context.DeadlineExceeded)
// holds for a deadline that expired in a remote server.
type ErrorCode string

const (
	// CodeInvalidArgument rejects a malformed request: out-of-range
	// source, epsilon outside (0,1), negative k, unparsable body.
	CodeInvalidArgument ErrorCode = "invalid_argument"
	// CodeNotFound names a missing resource — an algorithm not in the
	// registry.
	CodeNotFound ErrorCode = "not_found"
	// CodeDeadlineExceeded is a query cancelled by its deadline
	// (per-request timeout or the service-wide default). Matches
	// context.DeadlineExceeded under errors.Is. Anytime carve-out: a
	// request that set AllowPartial and completed at least one accuracy
	// tier before its deadline fired gets a best-so-far Response
	// (Partial: true) instead of this code — deadline_exceeded then only
	// means no useful work finished at all.
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
	// CodeCanceled is a query cancelled by its caller. Matches
	// context.Canceled under errors.Is.
	CodeCanceled ErrorCode = "canceled"
	// CodeUnavailable asks the caller to retry elsewhere or later: the
	// service exists but cannot take the request now.
	CodeUnavailable ErrorCode = "unavailable"
	// CodeClosed is a request to a service that has been shut down.
	// Matches ErrServiceClosed under errors.Is.
	CodeClosed ErrorCode = "closed"
	// CodeInternal is an unexpected server-side failure (a querier build
	// error, a panic turned response). Retryable: another attempt, or
	// another replica, may not fail the same way.
	CodeInternal ErrorCode = "internal"
)

// Retryable reports whether a request refused with code c is worth
// sending again, to the same server later or to another replica:
// unavailable, closed and internal. Deadline and cancel are the caller's
// own bounds; invalid_argument and not_found would fail identically
// everywhere.
func (c ErrorCode) Retryable() bool {
	switch c {
	case CodeUnavailable, CodeClosed, CodeInternal:
		return true
	}
	return false
}

// Error is the serializable per-request error of the query protocol. It
// travels inside Response (and so over any transport) where a bare Go
// error could not; Is() maps the stable Code back onto the standard
// sentinels so call sites keep using errors.Is unchanged, locally or
// against a remote server.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message,omitempty"`

	// RetryAfterMillis, when positive on a CodeUnavailable error, hints
	// how long the caller should wait before retrying: shed responses
	// size it from observed queue dwell, breaker-open responses from the
	// remaining cooldown. Clients treat it as the floor of their next
	// backoff sleep; 0 means no hint.
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`

	// cause is the wrapped local error (Wrapf). It keeps errors.Is/As
	// chains intact in-process and is deliberately not serialized: only
	// Code, Message and RetryAfterMillis cross a transport boundary.
	cause error
}

// Errorf builds an *Error with a formatted message.
func Errorf(code ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Wrapf builds an *Error that carries code and wraps cause: the message
// becomes "<formatted>: <cause>", and Unwrap exposes cause so local
// errors.Is/As chains still see the original error. Use it where a
// fmt.Errorf("...: %w", err) used to leak an uncoded error across the
// public surface.
func Wrapf(code ErrorCode, cause error, format string, args ...any) *Error {
	msg := fmt.Sprintf(format, args...)
	if cause != nil {
		msg += ": " + cause.Error()
	}
	return &Error{Code: code, Message: msg, cause: cause}
}

// WithRetryAfter stamps the retry_after_ms hint (rounded up to ≥1ms for
// positive durations, so a sub-millisecond hint survives the integer
// wire field) and returns e for call-site chaining.
func (e *Error) WithRetryAfter(d time.Duration) *Error {
	if d <= 0 {
		return e
	}
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	e.RetryAfterMillis = ms
	return e
}

// RetryAfter extracts the retry hint from any error carrying a *Error
// with RetryAfterMillis set (0 otherwise) — the duration clients floor
// their next backoff sleep at.
func RetryAfter(err error) time.Duration {
	var pe *Error
	if errors.As(err, &pe) && pe.RetryAfterMillis > 0 {
		return time.Duration(pe.RetryAfterMillis) * time.Millisecond
	}
	return 0
}

// Unwrap exposes the wrapped cause (nil for errors built by Errorf or
// received over a transport).
func (e *Error) Unwrap() error { return e.cause }

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Message == "" {
		return string(e.Code)
	}
	return string(e.Code) + ": " + e.Message
}

// Is makes errors.Is work across serialization: a deserialized *Error has
// lost the original error identity, so matching is by Code. Two *Errors
// match on equal codes; the context sentinels and ErrServiceClosed match
// their corresponding codes.
func (e *Error) Is(target error) bool {
	switch target {
	case context.DeadlineExceeded:
		return e.Code == CodeDeadlineExceeded
	case context.Canceled:
		return e.Code == CodeCanceled
	case ErrServiceClosed:
		return e.Code == CodeClosed
	}
	if te, ok := target.(*Error); ok {
		return e.Code == te.Code
	}
	return false
}

// ToError maps any error onto the protocol taxonomy: nil stays nil, an
// *Error passes through, the context sentinels and ErrServiceClosed map
// to their codes, and anything unrecognized becomes CodeInternal (its
// text is preserved in Message).
func ToError(err error) *Error {
	if err == nil {
		return nil
	}
	var pe *Error
	if errors.As(err, &pe) {
		return pe
	}
	code := CodeInternal
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		code = CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		code = CodeCanceled
	case errors.Is(err, ErrServiceClosed):
		code = CodeClosed
	}
	return &Error{Code: code, Message: err.Error()}
}
