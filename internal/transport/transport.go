// Package transport moves protocol messages between location servers,
// clients and tracked objects. Two networks are provided:
//
//   - Inproc: every node is a handler function in one process, with
//     injectable per-hop latency and a FaultPlan that drops, duplicates
//     or delays single deliveries (a NodesDown plan pauses whole nodes).
//     This substitutes the paper's testbed of five workstations on
//     100 Mbit Ethernet: hop counts, message sequences and concurrency
//     are identical, only absolute wire time differs
//     (InprocOptions.Latency models it per link).
//   - UDP: each node binds a datagram socket, mirroring the paper's choice
//     of UDP for efficient client/server and server/server interaction.
//
// Random loss on either network comes from one seeded Loss: an Inproc
// takes its Plan as the FaultPlan, a UDP network takes it through SetLoss.
//
// The node is written once (endpoint.go), one call runtime over both
// networks: one-way Send, blocking Call and multiplexed CallAsync with
// hop-by-hop replies, per-peer breakers, and serving a request with its
// reply. A network supplies only how an envelope leaves a node and the
// accounting of the handler tasks it starts. Calls are correlated by
// request id through the in-flight tracker: per-call deadlines are swept
// by a timeout goroutine that resolves expired entries as timeout error
// frames, and an optional in-flight cap provides backpressure, so
// thousands of requests can ride one socket concurrently instead of in
// lockstep.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// Handler processes one incoming message on a node. For hop-by-hop calls
// the returned message is sent back as the reply; returning an error sends
// an ErrorRes instead. One-way messages ignore the return values.
//
// Every delivered request is handled concurrently — with its sender, with
// the transport's receive path and with every other envelope — on a worker
// of the handler executor (executor.go), so a handler may block, in nested
// Calls included: the worker set grows on demand and is never capped. No
// order holds between two envelopes, even from one sender to one node.
// Replies are not handled at all: the transport resolves the caller's
// PendingCall inline, on the replying handler's goroutine (Inproc) or the
// socket's read loop (UDP).
type Handler func(ctx context.Context, from msg.NodeID, m msg.Message) (msg.Message, error)

// Node is one attached endpoint of a Network.
type Node interface {
	// ID returns the node's network identifier.
	ID() msg.NodeID
	// Send delivers m to the destination without waiting for an answer.
	Send(to msg.NodeID, m msg.Message) error
	// Call delivers m and blocks until the destination's handler reply
	// arrives or ctx is done.
	Call(ctx context.Context, to msg.NodeID, m msg.Message) (msg.Message, error)
	// CallAsync delivers m and returns immediately with a PendingCall that
	// resolves when the reply arrives, the deadline expires (ctx's
	// deadline, or the network's default call timeout when ctx has none),
	// or the call is cancelled. When the network caps in-flight calls,
	// CallAsync blocks until a slot frees or ctx is done.
	CallAsync(ctx context.Context, to msg.NodeID, m msg.Message) (*PendingCall, error)
	// PendingCalls returns the number of in-flight calls awaiting replies;
	// a quiesced node reports zero (no leaked entries).
	PendingCalls() int
	// Clock returns the network's clock, which times the node's call
	// deadlines, sweeps, breaker cooldowns and retry backoffs; code that
	// holds the node reads its timestamps and arms its timers on it too.
	Clock() clock.Clock
	// Close detaches the node from the network.
	Close() error
	// countRetry feeds the network's wire_retries counter. Unexported, so
	// only this package's nodes implement Node, and a node that wraps one
	// by embedding it still counts its retries.
	countRetry()
}

// Network attaches nodes.
type Network interface {
	// Attach registers a handler under id and returns the node endpoint.
	Attach(id msg.NodeID, h Handler) (Node, error)
	// Close shuts the network down and waits for in-flight deliveries.
	Close() error
}

// ClockOf returns n's clock: what its Clock method returns, or the wall
// clock for a network without one (a decorator such as a tracing wrapper,
// whose nodes still report the clock of the network they wrap).
func ClockOf(n Network) clock.Clock {
	if c, ok := n.(interface{ Clock() clock.Clock }); ok {
		return c.Clock()
	}
	return clock.Real{}
}

// Errors returned by transports.
var (
	ErrUnknownNode = errors.New("transport: unknown destination node")
	ErrClosed      = errors.New("transport: network closed")
	ErrDuplicateID = errors.New("transport: node id already attached")
	// ErrBreakerOpen is returned by Send/Call/CallAsync when the
	// destination's circuit breaker is open: the peer has failed enough
	// consecutive calls that further attempts are refused immediately —
	// no datagram is written and no in-flight slot is burned — until the
	// cooldown elapses and a probe call half-opens the breaker.
	ErrBreakerOpen = errors.New("transport: peer circuit breaker open")
)

// defaultSweepInterval is how often the timeout goroutine scans for
// expired in-flight calls when no interval is configured. It bounds how
// late past its deadline a call can resolve.
const defaultSweepInterval = 25 * time.Millisecond

// trackerConfig tunes a node's in-flight call tracker.
type trackerConfig struct {
	// clk times deadlines and the sweeper.
	clk clock.Clock
	// maxInFlight caps concurrently outstanding calls; zero is unbounded.
	maxInFlight int
	// sweepEvery is the timeout goroutine's scan interval; zero uses
	// defaultSweepInterval.
	sweepEvery time.Duration
	// timeouts counts every call resolved by the deadline sweeper.
	timeouts *metrics.Counter
	// late counts every reply that found no waiter (late after a timeout,
	// a duplicate, or a cancellation).
	late *metrics.Counter
	// health, nil without breakers, learns every call resolution
	// attributable to the peer: a reply arrived (even an error frame — the
	// peer is alive), or the deadline sweeper expired the call. Caller
	// cancellations say nothing about the peer and are not reported.
	health *health
}

// calls is the in-flight tracker shared by the transport implementations:
// a request-id-correlated table of waiters with per-call deadlines. A
// reply resolves its entry exactly once (duplicates and late replies are
// counted and dropped); a sweeper goroutine resolves expired entries with
// a timeout error frame; an optional semaphore bounds the table size for
// backpressure.
type calls struct {
	cfg  trackerConfig
	next atomic.Uint64

	// slots, when non-nil, is the in-flight semaphore: register acquires,
	// resolution releases. Sized to cfg.maxInFlight.
	slots chan struct{}

	mu       sync.Mutex
	waiters  map[uint64]*callWaiter
	sweeping bool

	stop     chan struct{}
	stopOnce sync.Once
}

// callWaiter is one in-flight call: its reply channel (buffered so no
// resolver ever blocks), its destination (for per-peer outcome
// accounting), its deadline (zero = none) and, when the caller left one
// with PendingCall.Then, the continuation that takes the resolution in
// place of the channel.
type callWaiter struct {
	ch       chan msg.Message
	to       msg.NodeID
	deadline time.Time
	then     func(msg.Message)
}

// resolve hands the call's outcome to whoever takes it. The caller has
// removed w from the table (under calls.mu, which also publishes then).
func (w *callWaiter) resolve(m msg.Message) {
	if w.then != nil {
		w.then(m)
		return
	}
	w.ch <- m
}

func newCalls(cfg trackerConfig) *calls {
	if cfg.sweepEvery <= 0 {
		cfg.sweepEvery = defaultSweepInterval
	}
	c := &calls{
		cfg:     cfg,
		waiters: make(map[uint64]*callWaiter),
		stop:    make(chan struct{}),
	}
	if cfg.maxInFlight > 0 {
		c.slots = make(chan struct{}, cfg.maxInFlight)
	}
	return c
}

// register allocates a correlation id and its reply channel, blocking for
// an in-flight slot when the tracker is bounded. A non-zero deadline arms
// the sweeper for this entry.
func (c *calls) register(ctx context.Context, to msg.NodeID, deadline time.Time) (uint64, chan msg.Message, error) {
	if c.slots != nil {
		select {
		case c.slots <- struct{}{}:
		case <-ctx.Done():
			return 0, nil, fmt.Errorf("transport: awaiting in-flight slot: %w", ctx.Err())
		case <-c.stop:
			return 0, nil, ErrClosed
		}
	}
	id := c.next.Add(1)
	ch := make(chan msg.Message, 1)
	c.mu.Lock()
	c.waiters[id] = &callWaiter{ch: ch, to: to, deadline: deadline}
	var ticker *clock.Ticker
	if !deadline.IsZero() && !c.sweeping {
		c.sweeping = true
		// Armed here, not in the goroutine, so the first deadline is
		// already being swept for when register returns.
		ticker = c.cfg.clk.NewTicker(c.cfg.sweepEvery)
	}
	c.mu.Unlock()
	if ticker != nil {
		go c.sweepLoop(ticker)
	}
	return id, ch, nil
}

// take removes and returns the waiter for id, releasing its in-flight
// slot. It is the single point of entry removal, so the slot is released
// exactly once per registered call.
func (c *calls) take(id uint64) *callWaiter {
	c.mu.Lock()
	w, ok := c.waiters[id]
	if ok {
		delete(c.waiters, id)
	}
	c.mu.Unlock()
	if !ok {
		return nil
	}
	if c.slots != nil {
		<-c.slots
	}
	return w
}

// cancel drops a waiter that will no longer be serviced.
func (c *calls) cancel(id uint64) {
	c.take(id)
}

// deliver routes a reply to its waiter; it reports whether one was
// waiting. A late or duplicate reply finds no entry — resolved calls are
// removed from the table — so it cannot cross onto another call; it is
// only counted.
func (c *calls) deliver(id uint64, m msg.Message) bool {
	w := c.take(id)
	if w == nil {
		c.cfg.late.Inc()
		return false
	}
	// Accounting first: the caller this wakes may look at the breaker (its
	// next call) or at the counters before this goroutine runs again.
	c.cfg.health.outcome(w.to, true)
	w.resolve(m)
	return true
}

// sweepLoop is the timeout goroutine: every sweep interval it resolves
// expired entries with a timeout error frame, exactly as if the remote had
// answered "timed out". It runs from the first deadline-bearing call until
// the tracker closes.
func (c *calls) sweepLoop(ticker *clock.Ticker) {
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-ticker.C:
			var expired []*callWaiter
			c.mu.Lock()
			for id, w := range c.waiters {
				if !w.deadline.IsZero() && now.After(w.deadline) {
					delete(c.waiters, id)
					expired = append(expired, w)
				}
			}
			c.mu.Unlock()
			for _, w := range expired {
				if c.slots != nil {
					<-c.slots
				}
				// Counted before resolved, as in deliver: a caller that
				// has its timeout finds it in wire_call_timeouts.
				c.cfg.timeouts.Inc()
				c.cfg.health.outcome(w.to, false)
				w.resolve(msg.ErrorRes{Code: msg.CodeTimeout, Text: "in-flight call expired before its reply arrived"})
			}
		}
	}
}

// close stops the sweeper, unblocks registrations waiting on a slot and
// fails the callers parked in await with ErrClosed: nothing will resolve
// their calls any more. Continuations left with Then are dropped.
func (c *calls) close() {
	c.stopOnce.Do(func() { close(c.stop) })
}

// await blocks until the reply for id arrives, ctx is done or the tracker
// closes.
func (c *calls) await(ctx context.Context, id uint64, ch chan msg.Message) (msg.Message, error) {
	select {
	case m := <-ch:
		return replyOrError(m)
	case <-ctx.Done():
		c.cancel(id)
		return nil, fmt.Errorf("transport: call: %w", ctx.Err())
	case <-c.stop:
		// With the sweeper gone a deadline no longer resolves anything.
		// A reply that made it in first still counts.
		select {
		case m := <-ch:
			return replyOrError(m)
		default:
		}
		c.cancel(id)
		return nil, fmt.Errorf("transport: call: %w", ErrClosed)
	}
}

// replyOrError turns a resolution into Call's results: an error frame is
// the error, anything else the reply.
func replyOrError(m msg.Message) (msg.Message, error) {
	if err := msg.AsError(m); err != nil {
		return nil, err
	}
	return m, nil
}

// callDeadline resolves the deadline for a new call: the earlier of the
// context's deadline and now+def, now read on the node's clock clk. The
// configured default is a cap, not a fallback — a call under a generous
// context still expires on the network's timeout, so the sweeper (not the
// caller's context) resolves lost replies and the timeout is observable in
// the wire metrics.
func callDeadline(ctx context.Context, clk clock.Clock, def time.Duration) time.Time {
	var dl time.Time
	if d, ok := ctx.Deadline(); ok {
		dl = d
	}
	if def > 0 {
		if capped := clk.Now().Add(def); dl.IsZero() || capped.Before(dl) {
			dl = capped
		}
	}
	return dl
}

// WithCallDeadline returns a context for Call, CallAsync and
// PendingCall.Wait whose deadline is the earlier of parent's and
// now+timeout on clk (the node's clock), and which costs no timer,
// goroutine or channel: cancellation is parent's, and the deadline is only
// carried, for callDeadline to read.
// What enforces it is the in-flight tracker's sweeper, which resolves the
// call with a timeout error frame once the deadline has passed (and Wait
// returns ErrClosed if the node closes first) — so, unlike
// context.WithTimeout's, this context's Done never fires on the deadline
// and it is of no use to code that selects on Done to learn about one.
func WithCallDeadline(parent context.Context, clk clock.Clock, timeout time.Duration) context.Context {
	deadline := clk.Now().Add(timeout)
	if d, ok := parent.Deadline(); ok && !deadline.Before(d) {
		return parent
	}
	return deadlineCtx{Context: parent, deadline: deadline}
}

type deadlineCtx struct {
	context.Context
	deadline time.Time
}

func (c deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// deadlinePassed reports whether ctx carries a deadline that is over on
// clk, whether or not anything has cancelled ctx for it.
func deadlinePassed(ctx context.Context, clk clock.Clock) bool {
	d, ok := ctx.Deadline()
	return ok && !clk.Now().Before(d)
}

// PendingCall is one multiplexed in-flight request. It resolves exactly
// once: with the reply, with a timeout error frame from the deadline
// sweeper, with the Wait context's error, or with ErrClosed when its node
// closes under a waiter.
type PendingCall struct {
	c  *calls
	id uint64
	ch chan msg.Message
}

// Wait blocks until the call resolves or ctx is done. Cancelling via ctx
// removes the in-flight entry, so a reply arriving later is counted as
// late and dropped.
func (p *PendingCall) Wait(ctx context.Context) (msg.Message, error) {
	return p.c.await(ctx, p.id, p.ch)
}

// Then leaves the call's resolution to fn, for a caller that would
// otherwise park a goroutine in Wait only to learn whether an
// acknowledgement came: fn receives what Done would have delivered (the
// reply, or the sweeper's timeout frame; run it through msg.AsError) exactly
// once, on the goroutine that resolves the call — a replying handler's, a
// read loop's, the sweeper's — or at once on the caller's when the call has
// resolved already. fn must not block. A call handed to Then is not to be
// waited on as well.
func (p *PendingCall) Then(fn func(msg.Message)) {
	c := p.c
	c.mu.Lock()
	w, pending := c.waiters[p.id]
	if pending {
		w.then = fn
	}
	c.mu.Unlock()
	if !pending {
		// Taken out of the table already: its resolver is on the way to
		// the (buffered) channel.
		fn(<-p.ch)
	}
}
