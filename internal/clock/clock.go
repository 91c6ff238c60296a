// Package clock is the one time source of the transport, the servers and
// the clients. A network owns a Clock (transport.InprocOptions.Clock), and
// every node, server and client attached to it reads that clock for
// timestamps, timers, tickers and context deadlines. Real is the wall
// clock; Manual is a clock a test holds and advances by hand, so a whole
// deployment's timeouts, backoffs, cooldowns and ticks happen exactly when
// the test says and never on their own.
package clock

import (
	"context"
	"time"
)

// Clock reads the time and arms timers.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc calls f in its own goroutine (Real) or on the advancing
	// goroutine (Manual) once d has passed.
	AfterFunc(d time.Duration, f func()) Timer
	// NewTicker delivers the time on the ticker's C every d, dropping ticks
	// for a slow reader.
	NewTicker(d time.Duration) *Ticker
	// WithTimeout is context.WithTimeout measured on this clock.
	WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// Timer is an armed AfterFunc.
type Timer interface {
	// Stop disarms the timer; it reports whether that prevented the call.
	Stop() bool
}

// Ticker is time.Ticker for any Clock.
type Ticker struct {
	C    <-chan time.Time
	stop func()
}

// Stop turns the ticker off; no tick is sent after it returns.
func (t *Ticker) Stop() { t.stop() }

// After returns a channel that is closed once d has passed on c, and the
// timer that closes it, for a caller that stops waiting early to Stop.
func After(c Clock, d time.Duration) (<-chan struct{}, Timer) {
	ch := make(chan struct{})
	return ch, c.AfterFunc(d, func() { close(ch) })
}

// Sleep waits d on c, or until ctx is done; it reports whether d passed.
func Sleep(ctx context.Context, c Clock, d time.Duration) bool {
	ch, t := After(c, d)
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		t.Stop()
		return false
	}
}

// Real is the wall clock: each method is the time or context call of the
// same name.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) *Ticker {
	t := time.NewTicker(d)
	return &Ticker{C: t.C, stop: t.Stop}
}

// WithTimeout implements Clock.
func (Real) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, d)
}
