package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/guard"
)

// maxBodyBytes bounds request bodies; every payload the API accepts is a
// few hundred bytes, so 1 MiB is generous while stopping memory abuse.
const maxBodyBytes = 1 << 20

// recoverMiddleware converts a panicking handler into a structured JSON 500
// instead of killing the connection (and, under http.Serve semantics, the
// goroutine with a stack dump only). The stack is logged server-side; the
// client sees a stable error shape.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				// http.ErrAbortHandler is the sentinel for "client went
				// away"; re-panicking preserves net/http's handling.
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				log.Printf("server: panic in %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				s.writeError(w, http.StatusInternalServerError, codeInternal, fmt.Errorf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// timeoutMiddleware attaches a per-request deadline to the request context,
// so session runs and sweeps abort mid-discovery when the budget expires
// (the handlers pass r.Context() down into the library). Zero disables.
func timeoutMiddleware(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// limitBodyMiddleware caps request body size.
func limitBodyMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// Stable machine-readable error codes carried in the JSON error envelope.
const (
	codeBadRequest      = "bad_request"
	codeNotFound        = "not_found"
	codeSessionBuilding = "session_building"
	codeSessionFailed   = "session_failed"
	codeTooManySessions = "too_many_sessions"
	codeUnknownStrategy = "unknown_strategy"
	codeOverloaded      = "overloaded"
	codeTimeout         = "timeout"
	codeCanceled        = "canceled"
	codeInternal        = "internal"
)

// apiError is the uniform JSON error envelope body: every non-2xx response
// is {"error":{"code":..., "message":..., "traceId":...}} — the trace ID
// duplicates the Traceparent/X-Request-ID headers in-band, so clients that
// only log bodies still capture the correlation handle.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	TraceID string `json:"traceId,omitempty"`
}

// writeError emits the uniform error envelope. Overload responses — 429
// (session limit) and 5xx the client should back off from (503/504) — carry
// a Retry-After header; call sites with better knowledge may set it first
// and win: the eviction cadence behind a 429, the breaker's REMAINING
// cooldown behind a circuit-open 503, and a fleet proxy relaying a
// downstream shed forwards the downstream's value verbatim (the proxy
// copies response headers and never re-enters this function). Sites with no
// better estimate fall back to a value DERIVED from guard state — the
// breaker's remaining cooldown when the circuit is open, one second
// otherwise (limiter sheds clear in sub-second time) — rather than a
// hardcoded constant. Every value this function sets is jittered
// deterministically per request (guard.JitterRetryAfter seeded by the
// X-Request-ID the trace middleware stamps eagerly), so a burst of clients
// shed in the same instant de-synchronizes instead of thundering back on
// the same second. The trace ID is read back from the same header, which
// spares every call site from threading the request context through.
func (s *Server) writeError(w http.ResponseWriter, status int, code string, err error) {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		if w.Header().Get("Retry-After") == "" {
			s.setRetryAfter(w, s.retryAfterBase())
		}
	}
	writeJSON(w, status, map[string]apiError{"error": {
		Code: code, Message: err.Error(), TraceID: w.Header().Get("X-Request-ID"),
	}})
}

// retryAfterBase derives the generic Retry-After fallback from guard state:
// an open build breaker dominates (its remaining cooldown is the soonest
// the node plausibly accepts expensive work again); otherwise one second —
// AIMD limiter slots churn at request latency, so "retry shortly" is
// honest and the per-request jitter supplies the spread.
func (s *Server) retryAfterBase() int {
	if ra := s.breaker.RetryAfter(); ra > 0 {
		return guard.RetryAfterSeconds(ra)
	}
	return 1
}

// setRetryAfter stamps a jittered Retry-After derived from base seconds,
// seeded by the request's trace identity for per-request determinism.
func (s *Server) setRetryAfter(w http.ResponseWriter, base int) {
	jittered := guard.JitterRetryAfter(w.Header().Get("X-Request-ID"), base)
	w.Header().Set("Retry-After", strconv.Itoa(jittered))
}

// runErrorStatus maps a session-layer error to an HTTP status and envelope
// code: an expired per-request deadline is a gateway timeout, a client
// cancellation is 499-like (we use 503 as the closest standard code),
// anything else is a bad request (validation) — the caller decides which
// bucket applies.
func runErrorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, codeTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, codeCanceled
	default:
		return http.StatusBadRequest, codeBadRequest
	}
}
