package transport

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/msg"
)

// Call-path retries. A lost datagram (request or reply) surfaces as a
// swept timeout; for idempotent operations the cheapest fix is simply
// asking again. CallWithRetry wraps Node.Call with a bounded retry budget
// using exponential backoff and full jitter, retrying only errors that
// plausibly clear on their own: timeouts and open breakers. The message is
// re-sent verbatim, so operations with side effects must carry a per-sender
// Seq (UpdateReq, RegisterReq) and rely on the receiver's dedupe window for
// exactly-once application; see the wire package doc's retry-idempotency
// rules.

// RetryPolicy bounds a retried call.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 mean a single attempt — no retries.
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule: before attempt i+1 the
	// caller sleeps uniform[0, min(BaseBackoff·2^i, MaxBackoff)) — "full
	// jitter", which decorrelates retry bursts from many senders hitting
	// one recovering server. Zero defaults to 20ms.
	BaseBackoff time.Duration
	// MaxBackoff caps one backoff draw. Zero defaults to 1s.
	MaxBackoff time.Duration
	// PerTryTimeout bounds each attempt with its own deadline, so one
	// lost datagram costs one try's budget, not the whole operation's.
	// Zero leaves the caller's context (and the network's call-timeout
	// cap) in charge.
	PerTryTimeout time.Duration
}

// Retryable reports whether err is worth another attempt: swept or local
// timeouts (the datagram or its reply was probably lost) and open breakers
// (the cooldown may have elapsed by the next backoff). Remote application
// errors (not_found, out_of_area, …) are deterministic and returned as is.
func Retryable(err error) bool {
	return errors.Is(err, core.ErrTimeout) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrBreakerOpen)
}

// CountRetry feeds the node network's wire_retries counter. Manual retry
// loops — operations that cannot ride CallWithRetry, like the client's
// one-way registration re-send — call it once per retry so the counter
// stays a complete picture.
func CountRetry(nd Node) { nd.countRetry() }

// Backoff draws the full-jitter sleep before attempt attempt+1 (attempt is
// the 1-based count of attempts already made): uniform[0, min(Base·2^(a-1),
// Max)).
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 20 * time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = time.Second
	}
	backoff := base << (attempt - 1)
	if backoff > maxB || backoff <= 0 {
		backoff = maxB
	}
	return jitter(backoff)
}

// Pause sleeps out the backoff before attempt attempt+1 (see Backoff) on
// clk and reports whether it did; false means ctx ended first. Its timer is
// stopped on the way out, so an abandoned pause leaves nothing behind.
func (p RetryPolicy) Pause(ctx context.Context, clk clock.Clock, attempt int) bool {
	return clock.Sleep(ctx, clk, p.Backoff(attempt))
}

// retryRNG is the shared jitter source. Backoff draws are rare (one per
// retry, not per call), so one locked source is fine. Its seed reads the
// wall clock: it only has to differ between processes.
var retryRNG = struct {
	sync.Mutex
	r *rand.Rand
}{r: rand.New(rand.NewSource(time.Now().UnixNano()))}

// jitter draws uniform[0, d).
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	retryRNG.Lock()
	defer retryRNG.Unlock()
	return time.Duration(retryRNG.r.Int63n(int64(d)))
}

// CallWithRetry performs nd.Call(ctx, dest(), m) under pol, timing
// backoffs and per-try deadlines on the node's clock. dest is
// re-read before every attempt so a retry follows agent rebinding (an
// UpdateRes.Moved applied between attempts) and entry-server changes.
// The last error is returned when the budget is exhausted; non-retryable
// errors return immediately.
func CallWithRetry(ctx context.Context, nd Node, dest func() msg.NodeID, m msg.Message, pol RetryPolicy) (msg.Message, error) {
	attempts := pol.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	clk := nd.Clock()
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			CountRetry(nd)
			if !pol.Pause(ctx, clk, i) {
				return nil, lastErr
			}
		}
		tryCtx, cancel := ctx, func() {}
		if pol.PerTryTimeout > 0 {
			// A timer context, not WithCallDeadline: a try that ends on its
			// own context is the caller giving up, which the peer's breaker
			// does not count; a swept one would be a failure of the peer.
			tryCtx, cancel = clk.WithTimeout(ctx, pol.PerTryTimeout)
		}
		res, err := nd.Call(tryCtx, dest(), m)
		cancel()
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !Retryable(lastErr) || ctx.Err() != nil || deadlinePassed(ctx, clk) {
			return nil, lastErr
		}
	}
	return nil, lastErr
}
