package transport

import (
	"context"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// The node, written once for both networks: one call runtime over
// interchangeable transports. An endpoint owns everything a node does
// with a message — correlation through the in-flight tracker, the per-peer
// breakers, the network's call counters and serving a request with its
// reply — and leaves the network only two things, its link: how an
// envelope leaves the node, and the accounting of the handler tasks it
// starts.

// link is what a network supplies each of its nodes.
type link interface {
	// send puts env on its way to the node to; an error means it did not
	// leave.
	send(to msg.NodeID, env msg.Envelope) error
	// addTask reserves a slot for one handler task and reports whether the
	// task may start (false once the network is closing); doneTask frees
	// it.
	addTask() bool
	doneTask()
}

// callConfig is what every node of one network shares: the call and
// breaker settings of the network's options, its clock, its metrics
// registry and the call counters resolved in it. InprocOptions and
// UDPOptions carry these settings under the same names.
type callConfig struct {
	clk              clock.Clock
	metrics          *metrics.Registry
	callTimeout      time.Duration
	sweepEvery       time.Duration
	maxInFlight      int
	breakerThreshold int
	breakerCooldown  time.Duration

	// retries counts CallWithRetry re-attempts, callTimeouts the calls the
	// deadline sweeper expired and lateReplies the replies that found no
	// waiter.
	retries      *metrics.Counter
	callTimeouts *metrics.Counter
	lateReplies  *metrics.Counter
}

// newCallConfig resolves c's call counters in its registry.
func newCallConfig(c callConfig) *callConfig {
	c.retries = c.metrics.Counter("wire_retries")
	c.callTimeouts = c.metrics.Counter("wire_call_timeouts")
	c.lateReplies = c.metrics.Counter("wire_late_replies")
	return &c
}

// endpoint is one attached node of either network. Each network's node
// type embeds it and adds its own Close.
type endpoint struct {
	id      msg.NodeID
	handler Handler
	cfg     *callConfig
	calls   *calls
	health  *health
	link    link
}

// newEndpoint builds a node's tracker and breaker from its network's cfg.
func newEndpoint(id msg.NodeID, h Handler, cfg *callConfig, l link) endpoint {
	hl := newHealth(breakerConfig{
		clk:       cfg.clk,
		threshold: cfg.breakerThreshold,
		cooldown:  cfg.breakerCooldown,
		owner:     id,
		metrics:   cfg.metrics,
	})
	return endpoint{
		id:      id,
		handler: h,
		cfg:     cfg,
		health:  hl,
		link:    l,
		calls: newCalls(trackerConfig{
			clk:         cfg.clk,
			maxInFlight: cfg.maxInFlight,
			sweepEvery:  cfg.sweepEvery,
			timeouts:    cfg.callTimeouts,
			late:        cfg.lateReplies,
			health:      hl,
		}),
	}
}

// ID implements Node.
func (e *endpoint) ID() msg.NodeID { return e.id }

// Clock implements Node.
func (e *endpoint) Clock() clock.Clock { return e.cfg.clk }

// countRetry implements Node: it feeds the network's wire_retries counter.
func (e *endpoint) countRetry() { e.cfg.retries.Inc() }

// Send implements Node. An open breaker toward the destination fails
// fast: one-way messages to a dark peer are pure loss anyway.
func (e *endpoint) Send(to msg.NodeID, m msg.Message) error {
	if e.health.state(to) == PeerOpen {
		return ErrBreakerOpen
	}
	return e.link.send(to, msg.Envelope{From: e.id, Msg: m})
}

// Call implements Node: CallAsync followed by Wait, the lockstep special
// case of the multiplexed path.
func (e *endpoint) Call(ctx context.Context, to msg.NodeID, m msg.Message) (msg.Message, error) {
	p, err := e.CallAsync(ctx, to, m)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx)
}

// CallAsync implements Node.
func (e *endpoint) CallAsync(ctx context.Context, to msg.NodeID, m msg.Message) (*PendingCall, error) {
	if err := e.health.allow(to); err != nil {
		return nil, err
	}
	deadline := callDeadline(ctx, e.cfg.clk, e.cfg.callTimeout)
	id, ch, err := e.calls.register(ctx, to, deadline)
	if err != nil {
		e.health.abortProbe(to)
		return nil, err
	}
	if err := e.link.send(to, msg.Envelope{From: e.id, CorrID: id, Msg: m}); err != nil {
		e.calls.cancel(id)
		e.health.abortProbe(to)
		return nil, err
	}
	return &PendingCall{c: e.calls, id: id, ch: ch}, nil
}

// receive takes one envelope that reached the node. A reply is resolved
// through the tracker right here, on the goroutine that delivered it
// (resolving never blocks); a request is handled on the handler executor,
// concurrently with that goroutine and with every other envelope, in no
// particular order, so a handler may block in nested calls.
func (e *endpoint) receive(env msg.Envelope) {
	if env.Reply || e.handler == nil {
		e.handle(env)
		return
	}
	if !e.link.addTask() {
		return
	}
	handlers.run(func() {
		defer e.link.doneTask()
		e.handle(env)
	})
}

// handle executes one envelope on the calling goroutine: a reply resolves
// its call; a request runs the handler, and unless it was one-way its
// answer — the handler's reply, its error as an ErrorRes, or an Ack — goes
// back to the sender, best effort like any datagram. A node attached
// without a handler drops requests.
func (e *endpoint) handle(env msg.Envelope) {
	if env.Reply {
		e.calls.deliver(env.CorrID, env.Msg)
		return
	}
	if e.handler == nil {
		return
	}
	resp, err := e.handler(context.Background(), env.From, env.Msg)
	if env.CorrID == 0 {
		return
	}
	var payload msg.Message
	switch {
	case err != nil:
		payload = msg.ErrorResFrom(err)
	case resp != nil:
		payload = resp
	default:
		payload = msg.Ack{}
	}
	_ = e.link.send(env.From, msg.Envelope{From: e.id, CorrID: env.CorrID, Reply: true, Msg: payload})
}
