package fleet

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/guard"
	"repro/internal/trace"
)

// ForwardedHeader marks a request that already crossed one fleet hop. The
// receiving node serves it locally unconditionally: the sender routed on
// its ring view, and honoring a divergent local view would let a membership
// disagreement bounce a request forever.
const ForwardedHeader = "X-Rqp-Forwarded"

// DeadlineHeader propagates the proxy deadline downstream (RFC3339Nano), so
// the owner's handlers see the same budget the front door promised the
// client instead of restarting the clock per hop.
const DeadlineHeader = "X-Rqp-Deadline"

// RetryBudgetHeader carries the remaining wire-attempt budget across hops.
// Every attempt the proxy makes (primary, retry, hedge) spends one token;
// the decremented remainder is stamped on each outbound request. An incoming
// header can only LOWER the per-request cap — a client cannot mint itself a
// bigger fan-out — and a request arriving with a spent budget is rejected
// before it touches the wire, which is what stops a retry storm from
// amplifying through the fleet.
const RetryBudgetHeader = "X-Rqp-Retry-Budget"

// The proxy's fixed tuning. retryBudget caps the wire attempts (primary +
// retry + hedge) one request may spend across the fleet. At or above
// shedPressure, an owner's gossiped pressure makes the proxy reject at the
// edge instead of forwarding: the cheapest rejection point, sparing the
// saturated owner the request entirely. At or above hedgePressure, hedging
// is suppressed: a hedge against a struggling owner is pure load
// amplification.
const (
	retryBudget   = 3
	shedPressure  = 0.9
	hedgePressure = 0.6
)

// Envelope codes of the errors the fleet layer answers itself.
const (
	codeBadRequest      = "bad_request"
	codePeerUnreachable = "peer_unreachable"
	codeBudgetExhausted = "retry_budget_exhausted"
	codeOwnerOverloaded = "owner_overloaded"
)

// errBudgetExhausted reports a wire attempt suppressed because the request's
// retry-budget pool ran dry.
var errBudgetExhausted = fmt.Errorf("fleet: retry budget exhausted")

// retryTokens is one proxied request's wire-attempt budget: a shared atomic
// pool the primary, retry, and hedge attempts all draw from, so their sum can
// never exceed the cap no matter how the race interleaves.
type retryTokens struct{ left atomic.Int64 }

func newRetryTokens(cap int) *retryTokens {
	t := &retryTokens{}
	t.left.Store(int64(cap))
	return t
}

// take spends one token; false when the pool is dry.
func (t *retryTokens) take() bool {
	for {
		cur := t.left.Load()
		if cur <= 0 {
			return false
		}
		if t.left.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// remaining reports the unspent tokens (floor 0).
func (t *retryTokens) remaining() int {
	if r := t.left.Load(); r > 0 {
		return int(r)
	}
	return 0
}

// proxyMaxBody caps the request body a node will buffer for proxying —
// matching the server's own request-body limit, so the proxy can replay the
// body across retry and hedge attempts.
const proxyMaxBody = 1 << 20

// hopHeaders are the HTTP/1.1 hop-by-hop headers a proxy must not forward.
var hopHeaders = []string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// mintSessionID mints a fleet session ID: "f" + 12 random hex digits.
// Random (not sequential) because every node mints independently against
// the same shared data directory — sequential allocators collide across
// nodes, random IDs also spread placement uniformly over the ring.
func mintSessionID() string {
	b := make([]byte, 6)
	_, _ = rand.Read(b)
	return "f" + hex.EncodeToString(b)
}

// proxy forwards the request to owner, propagating the deadline, the trace
// identity (Traceparent was ensured by route) and the body; idempotent
// reads get one transport-error retry and a single hedge after HedgeDelay,
// writes get neither (a write that died on the wire may have executed).
// Response headers are copied verbatim — a downstream shed's Retry-After
// reaches the client untouched.
func (n *Node) proxy(w http.ResponseWriter, r *http.Request, owner string) {
	n.stampTrace(w, r)
	body, err := io.ReadAll(io.LimitReader(r.Body, proxyMaxBody+1))
	if err != nil {
		n.metrics.proxy.With("error").Inc()
		n.fleetError(w, http.StatusBadGateway, codePeerUnreachable, fmt.Errorf("fleet: read request body: %w", err))
		return
	}
	if len(body) > proxyMaxBody {
		n.metrics.proxy.With("client_error").Inc()
		n.fleetError(w, http.StatusRequestEntityTooLarge, codePeerUnreachable, fmt.Errorf("fleet: request body exceeds %d bytes", proxyMaxBody))
		return
	}

	// Retry-budget gate: the per-request wire-attempt cap, lowered (never
	// raised) by an incoming X-Rqp-Retry-Budget. A request arriving with no
	// budget left is rejected here, before any wire attempt — the
	// anti-amplification backstop against client retry storms.
	budgetCap := retryBudget
	if h := r.Header.Get(RetryBudgetHeader); h != "" {
		if v, err := strconv.Atoi(h); err == nil && v < budgetCap {
			budgetCap = v
		}
	}
	if budgetCap <= 0 {
		n.metrics.proxySheds.With("retry_budget").Inc()
		n.metrics.proxy.With("shed").Inc()
		n.setShedRetryAfter(w, guard.RetryAfterSeconds(n.cfg.HeartbeatInterval))
		n.fleetError(w, http.StatusTooManyRequests, codeBudgetExhausted,
			fmt.Errorf("fleet: retry budget exhausted for peer %s; back off before retrying", owner))
		return
	}
	tokens := newRetryTokens(budgetCap)

	// Edge shed: when gossip says the owner is saturated, reject HERE — the
	// cheapest rejection point, sparing the drowning owner even the cost of
	// saying no. The owner's own advertised Retry-After hint (jittered per
	// request) tells the client when pressure plausibly recedes. Stale or
	// missing vitals never shed: unknown load is not overload.
	ownerPressure := 0.0
	if v, ok := n.membership.PeerVitals(owner); ok {
		ownerPressure = v.Pressure()
		if ownerPressure >= shedPressure {
			n.metrics.proxySheds.With("pressure").Inc()
			n.metrics.proxy.With("shed").Inc()
			n.setShedRetryAfter(w, v.RetryAfterHint)
			n.fleetError(w, http.StatusServiceUnavailable, codeOwnerOverloaded,
				fmt.Errorf("fleet: peer %s is shedding load (pressure %.2f); retry after the advertised delay", owner, ownerPressure))
			return
		}
	}

	// One deadline spans the whole proxied exchange, hedges included; an
	// upstream hop's deadline (we are never >1 hop deep, but a client may
	// set one) caps it.
	budget := n.cfg.ProxyTimeout
	if h := r.Header.Get(DeadlineHeader); h != "" {
		if t, err := time.Parse(time.RFC3339Nano, h); err == nil {
			if rem := time.Until(t); rem > 0 && rem < budget {
				budget = rem
			}
		}
	}
	deadline := time.Now().Add(budget)
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()

	idempotent := r.Method == http.MethodGet || r.Method == http.MethodHead

	// Hedge suppression: a hedge is a deliberate load amplifier, exactly the
	// wrong reflex under pressure. Suppress it when this node is itself
	// browning out (stage ≥ 1) or when gossip puts the owner anywhere near
	// saturation — tail latency is the acceptable casualty of an overload.
	hedge := idempotent && n.srv.Stage() < 1 && ownerPressure < hedgePressure

	resp, release, err := n.forward(ctx, r, owner, body, deadline, idempotent, hedge, tokens)
	if err != nil {
		n.metrics.proxy.With("error").Inc()
		// The owner is unreachable (or the budget expired). Tell the client
		// when routing plausibly changes: one heartbeat interval from now
		// the owner is either probed back or marked down and re-hashed.
		w.Header().Set("Retry-After", strconv.Itoa(guard.RetryAfterSeconds(n.cfg.HeartbeatInterval)))
		n.fleetError(w, http.StatusBadGateway, codePeerUnreachable, fmt.Errorf("fleet: peer %s unreachable: %w", owner, err))
		return
	}
	// release (when non-nil) cancels the winning attempt's context; it must
	// not run until the body copy below has finished, or the read fails with
	// "context canceled" after the status line is already on the wire.
	if release != nil {
		defer release()
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		n.metrics.proxy.With("shed").Inc()
	case resp.StatusCode/100 == 4:
		n.metrics.proxy.With("client_error").Inc()
	case resp.StatusCode/100 == 5:
		n.metrics.proxy.With("error").Inc()
	default:
		n.metrics.proxy.With("ok").Inc()
	}

	// Copy the downstream response verbatim: headers first (Retry-After,
	// Traceparent, X-Request-ID all pass through untouched), then status,
	// then body.
	h := w.Header()
	for k, vv := range resp.Header {
		if isHopHeader(k) {
			continue
		}
		h[k] = append([]string(nil), vv...)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// forward performs the outbound exchange against owner: the primary
// attempt, a single transport-error retry for idempotent requests (writes
// get none), and — when hedging is allowed — a single hedge launched after
// HedgeDelay when the primary is slow, or immediately when the primary dies
// before the delay elapses. Every wire attempt first spends a token from the
// request's shared retry budget; a dry pool suppresses retries and hedges
// alike, so primary+retry+hedge can never exceed the cap. First response
// wins; only the loser's context is canceled. The returned release func
// (non-nil exactly when resp is from a hedged race) cancels the WINNER's
// context and must be called only after resp.Body has been fully consumed —
// canceling earlier kills the body read mid-stream.
func (n *Node) forward(ctx context.Context, r *http.Request, owner string, body []byte, deadline time.Time, idempotent, hedge bool, tokens *retryTokens) (*http.Response, context.CancelFunc, error) {
	attempt := func(ctx context.Context) (*http.Response, error) {
		if !tokens.take() {
			return nil, errBudgetExhausted
		}
		out, err := n.outboundRequest(ctx, r, owner, body, deadline, tokens.remaining())
		if err != nil {
			return nil, err
		}
		resp, err := n.client.Do(out)
		if err == nil || !idempotent || ctx.Err() != nil {
			return resp, err
		}
		// Read-class retry: one immediate retry on a transport error, budget
		// permitting. GETs are idempotent and the error means no response
		// was produced, so a duplicate is safe.
		if !tokens.take() {
			return nil, err
		}
		out, rerr := n.outboundRequest(ctx, r, owner, body, deadline, tokens.remaining())
		if rerr != nil {
			return nil, err
		}
		return n.client.Do(out)
	}

	if !hedge || n.cfg.HedgeDelay < 0 {
		resp, err := attempt(ctx)
		return resp, nil, err
	}

	// Each attempt is tagged with its slot (0 primary, 1 hedge) so the
	// winner's cancel func — cancels[res.id] — can be told apart from the
	// loser's. Only the select loop touches cancels; attempts report ids.
	type result struct {
		id   int
		resp *http.Response
		err  error
	}
	var cancels [2]context.CancelFunc
	results := make(chan result, 2)
	pending := 0
	launch := func(id int) {
		var actx context.Context
		actx, cancels[id] = context.WithCancel(ctx)
		pending++
		go func() {
			resp, err := attempt(actx)
			results <- result{id, resp, err}
		}()
	}
	// drainLate reaps still-inflight attempts after the race is decided:
	// their contexts are canceled (idempotent re-cancel for the loser) and
	// their bodies closed so connections are returned or shut.
	drainLate := func(left int) {
		if left <= 0 {
			return
		}
		go func() {
			for i := 0; i < left; i++ {
				late := <-results
				if c := cancels[late.id]; c != nil {
					c()
				}
				if late.resp != nil {
					late.resp.Body.Close()
				}
			}
		}()
	}

	launch(0)
	hedgeTimer := time.NewTimer(n.cfg.HedgeDelay)
	defer hedgeTimer.Stop()

	launched := false
	var firstErr error
	for {
		select {
		case <-hedgeTimer.C:
			if !launched {
				launched = true
				if tokens.remaining() > 0 {
					n.metrics.hedges.Inc()
					launch(1)
				}
			}
		case res := <-results:
			pending--
			if res.err == nil {
				// Winner: cancel only the loser and drain it in the
				// background; the winner's own context stays live until the
				// caller has copied the body and invokes the release func.
				if other := cancels[1-res.id]; other != nil {
					other()
				}
				drainLate(pending)
				return res.resp, cancels[res.id], nil
			}
			cancels[res.id]()
			if firstErr == nil {
				firstErr = res.err
			}
			if !launched {
				// The primary died before the hedge fired: launch the hedge
				// immediately rather than waiting out the delay (budget
				// permitting).
				launched = true
				hedgeTimer.Stop()
				if tokens.remaining() > 0 {
					n.metrics.hedges.Inc()
					launch(1)
					continue
				}
			}
			if pending == 0 {
				return nil, nil, firstErr
			}
		case <-ctx.Done():
			for _, c := range cancels {
				if c != nil {
					c()
				}
			}
			drainLate(pending)
			return nil, nil, ctx.Err()
		}
	}
}

// outboundRequest builds one proxied attempt: same method/path/query against
// the owner, headers copied minus hop-by-hop, forwarding marker, deadline and
// remaining retry budget stamped, body replayed from the buffer.
func (n *Node) outboundRequest(ctx context.Context, r *http.Request, owner string, body []byte, deadline time.Time, budgetLeft int) (*http.Request, error) {
	u := *r.URL
	u.Scheme = "http"
	u.Host = owner
	out, err := http.NewRequestWithContext(ctx, r.Method, u.String(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vv := range r.Header {
		if isHopHeader(k) {
			continue
		}
		out.Header[k] = append([]string(nil), vv...)
	}
	out.Header.Set(ForwardedHeader, n.cfg.Self)
	out.Header.Set(DeadlineHeader, deadline.UTC().Format(time.RFC3339Nano))
	out.Header.Set(RetryBudgetHeader, strconv.Itoa(budgetLeft))
	return out, nil
}

// isHopHeader reports whether the canonical header is hop-by-hop.
func isHopHeader(k string) bool {
	for _, h := range hopHeaders {
		if strings.EqualFold(k, h) {
			return true
		}
	}
	return false
}

// stampTrace pre-stamps the response with the request's trace identity, so
// proxy-level failures are correlatable even though no downstream handler
// ever ran. On success the downstream's headers overwrite these with the
// same trace ID (the traceparent was forwarded).
func (n *Node) stampTrace(w http.ResponseWriter, r *http.Request) {
	if w.Header().Get("X-Request-ID") != "" {
		return
	}
	if tp, err := trace.Parse(r.Header.Get("Traceparent")); err == nil {
		w.Header().Set("Traceparent", tp.Header())
		w.Header().Set("X-Request-ID", tp.TraceID)
	}
}

// setShedRetryAfter stamps a shed response's Retry-After: the advertised
// base plus the deterministic per-request jitter that de-synchronizes the
// herd of rejected clients (same discipline as the server's own sheds).
func (n *Node) setShedRetryAfter(w http.ResponseWriter, base int) {
	w.Header().Set("Retry-After",
		strconv.Itoa(guard.JitterRetryAfter(w.Header().Get("X-Request-ID"), base)))
}
