package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// Fault is one scripted delivery fault, returned by a FaultPlan: the
// envelope is dropped, delivered 1+Duplicate times, and/or delayed by
// Delay before the pair's normal latency. The zero Fault delivers
// normally.
type Fault struct {
	// Drop loses the envelope entirely (all copies).
	Drop bool
	// Duplicate delivers that many extra copies, modelling datagram
	// duplication.
	Duplicate int
	// Delay postpones delivery, modelling queueing or a detour; later
	// deliveries on the link overtake it, which is how a plan reorders.
	// Combined with a shorter call deadline it turns a reply into a late
	// reply.
	Delay time.Duration
}

// InprocOptions configure the in-process network.
type InprocOptions struct {
	// Latency, if non-nil, returns the one-way delivery delay between two
	// nodes. Use it to model the paper's LAN (e.g. a few hundred
	// microseconds per hop) or wide-area placements.
	Latency func(from, to msg.NodeID) time.Duration
	// FaultPlan, if non-nil, scripts the fault of every delivery that no
	// downed node (SetNodeDown) has already dropped. Tracker tests use it
	// to target specific envelopes (a reply's CorrID, a particular message
	// type or link) with exact drops, duplicates and delays; soaks pass a
	// seeded Loss's Plan.
	FaultPlan func(from, to msg.NodeID, env msg.Envelope) Fault
	// CallTimeout caps every Call/CallAsync deadline: the effective
	// deadline is the earlier of the context's and now+CallTimeout.
	// Zero means calls expire only on their own context's deadline.
	CallTimeout time.Duration
	// SweepInterval is the timeout goroutine's scan cadence; zero uses
	// defaultSweepInterval.
	SweepInterval time.Duration
	// MaxInFlight caps outstanding calls per node for backpressure; zero
	// is unbounded.
	MaxInFlight int
	// BreakerThreshold enables per-peer circuit breakers: after that many
	// consecutive swept timeouts to one destination, calls to it fail
	// fast with ErrBreakerOpen until BreakerCooldown elapses and a probe
	// call succeeds. Zero disables breakers.
	BreakerThreshold int
	// BreakerCooldown is the open→half-open probe interval; zero uses
	// defaultBreakerCooldown.
	BreakerCooldown time.Duration
	// Metrics, if non-nil, receives wire_retries, wire_call_timeouts,
	// wire_late_replies, wire_breaker_open and peer_state series (shared by
	// every node of this network).
	Metrics *metrics.Registry
	// Clock is the network's one time source: call deadlines, the sweeper,
	// breaker cooldowns, retry backoffs, Latency and fault delays run on
	// it, and so does everything a server or client attached to the
	// network times or stamps. A test passes a *clock.Manual and advances
	// the whole deployment from its handle. Nil is clock.Real.
	Clock clock.Clock
}

// Inproc is an in-process Network: nodes are handler functions, each
// delivered request handled concurrently on the handler executor.
type Inproc struct {
	mu     sync.RWMutex
	nodes  map[msg.NodeID]*inprocNode
	opts   InprocOptions
	clk    clock.Clock
	wg     sync.WaitGroup
	closed bool

	// faulty is false while nothing can touch a delivery — no plan, no
	// node down — and lets deliver skip the fault stage and its lock.
	// Stored under faultMu by everything that changes one of those.
	faulty atomic.Bool

	// faultMu guards down.
	faultMu sync.Mutex
	// down marks paused nodes: every delivery to or from a down node is
	// silently dropped, modelling a crashed or partitioned process whose
	// address still resolves (unlike Close, which unregisters the id).
	down map[msg.NodeID]bool

	// retries counts CallWithRetry re-attempts by nodes of this network,
	// callTimeouts the calls the deadline sweeper expired and lateReplies
	// the replies that found no waiter (all nil without a metrics registry).
	retries      *metrics.Counter
	callTimeouts *metrics.Counter
	lateReplies  *metrics.Counter
}

var _ Network = (*Inproc)(nil)

// NewInproc creates an in-process network.
func NewInproc(opts InprocOptions) *Inproc {
	clk := opts.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	n := &Inproc{
		nodes: make(map[msg.NodeID]*inprocNode),
		opts:  opts,
		clk:   clk,
		down:  make(map[msg.NodeID]bool),
	}
	if opts.Metrics != nil {
		n.retries = opts.Metrics.Counter("wire_retries")
		n.callTimeouts = opts.Metrics.Counter("wire_call_timeouts")
		n.lateReplies = opts.Metrics.Counter("wire_late_replies")
	}
	n.noteFaultsLocked()
	return n
}

// Clock returns the network's clock.
func (n *Inproc) Clock() clock.Clock { return n.clk }

// noteFaultsLocked recomputes faulty. Caller holds faultMu (or is the
// constructor).
func (n *Inproc) noteFaultsLocked() {
	n.faulty.Store(n.opts.FaultPlan != nil || len(n.down) > 0)
}

// nodeFaulted reports whether the directed link from→to is currently
// severed by a node that is down.
func (n *Inproc) nodeFaulted(from, to msg.NodeID) bool {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	if len(n.down) == 0 {
		return false
	}
	return n.down[from] || n.down[to]
}

type inprocNode struct {
	id      msg.NodeID
	net     *Inproc
	handler Handler
	calls   *calls
	health  *health
}

var _ Node = (*inprocNode)(nil)

// Attach implements Network.
func (n *Inproc) Attach(id msg.NodeID, h Handler) (Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.nodes[id]; ok {
		return nil, ErrDuplicateID
	}
	node := &inprocNode{id: id, net: n, handler: h}
	node.health = newHealth(breakerConfig{
		clk:       n.clk,
		threshold: n.opts.BreakerThreshold,
		cooldown:  n.opts.BreakerCooldown,
		owner:     id,
		metrics:   n.opts.Metrics,
	})
	tc := trackerConfig{
		clk:         n.clk,
		maxInFlight: n.opts.MaxInFlight,
		sweepEvery:  n.opts.SweepInterval,
	}
	if n.opts.Metrics != nil {
		tc.onTimeout = n.callTimeouts.Inc
		tc.onLate = n.lateReplies.Inc
	}
	if node.health != nil {
		tc.onOutcome = node.health.outcome
	}
	node.calls = newCalls(tc)
	n.nodes[id] = node
	return node, nil
}

// Close implements Network. It waits up to a grace period for in-flight
// deliveries so tests do not leak handler goroutines.
func (n *Inproc) Close() error {
	n.mu.Lock()
	n.closed = true
	nodes := make([]*inprocNode, 0, len(n.nodes))
	for _, nd := range n.nodes {
		nodes = append(nodes, nd)
	}
	n.mu.Unlock()
	for _, nd := range nodes {
		nd.calls.close()
	}
	done := make(chan struct{})
	go func() {
		n.wg.Wait()
		close(done)
	}()
	// A wall-clock guard: under a manual clock nothing else would end the
	// wait for a delivery parked on a timer the test never advances.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
	return nil
}

// addDelivery reserves a slot in the delivery WaitGroup, refusing once the
// network is closed. Every asynchronous delivery path must acquire its slot
// through this guard: Close flips closed under the same mutex before it
// waits, so a successful Add always happens-before the Wait and a late
// caller's delivery is dropped instead of racing the shutdown (the UDP
// service model already makes loss-at-close legal).
func (n *Inproc) addDelivery() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return false
	}
	n.wg.Add(1)
	return true
}

// addStage reserves a slot for the next asynchronous stage of a delivery
// chain. A caller that already holds a slot may Add unconditionally — the
// counter is provably nonzero, which the WaitGroup contract allows even
// concurrently with Wait — so deliveries already in the pipeline at Close
// (delayed copies) run to completion; only brand-new entry points go
// through the closed guard.
func (n *Inproc) addStage(slotHeld bool) bool {
	if slotHeld {
		n.wg.Add(1)
		return true
	}
	return n.addDelivery()
}

// lookup returns the destination node.
func (n *Inproc) lookup(id msg.NodeID) (*inprocNode, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return nil, ErrClosed
	}
	node, ok := n.nodes[id]
	if !ok {
		return nil, ErrUnknownNode
	}
	return node, nil
}

// deliver runs the fault stage for one envelope — the downed nodes, then
// the FaultPlan — and dispatches the surviving copies, a
// delayed copy from a timer on the network's clock. The plan runs
// synchronously on the sender's goroutine, so a sequential send schedule
// consults it (and a seeded Loss draws) in a deterministic order
// regardless of timer interleaving. A network with no fault of any kind
// configured skips the stage, and with it a trip through the network-wide
// faultMu per envelope.
func (n *Inproc) deliver(from msg.NodeID, dst *inprocNode, env msg.Envelope) {
	if !n.faulty.Load() {
		n.dispatch(from, dst, env, false)
		return
	}
	if n.nodeFaulted(from, dst.id) {
		return
	}
	var f Fault
	if plan := n.opts.FaultPlan; plan != nil {
		f = plan(from, dst.id, env)
	}
	if f.Drop {
		return
	}
	for i := 0; i <= f.Duplicate; i++ {
		if f.Delay > 0 {
			if !n.addDelivery() {
				continue
			}
			n.clk.AfterFunc(f.Delay, func() {
				defer n.wg.Done()
				n.dispatch(from, dst, env, true)
			})
			continue
		}
		n.dispatch(from, dst, env, false)
	}
}

// dispatch delivers one envelope. A request is handled on the handler
// executor: concurrently with its sender and with every other envelope, in
// no particular order. A reply is resolved right here, on the goroutine that
// produced it (resolving never blocks); only a link with a modelled latency
// to sleep out hands the reply to a worker too. slotHeld reports whether the
// caller holds a delivery slot for the duration of this call (true from a
// delayed copy's timer, false from a sender's goroutine).
func (n *Inproc) dispatch(from msg.NodeID, dst *inprocNode, env msg.Envelope, slotHeld bool) {
	lat := n.latency(from, dst.id)
	if env.Reply && lat <= 0 {
		n.handle(dst, env)
		return
	}
	if !n.addStage(slotHeld) {
		return
	}
	handlers.run(func() {
		defer n.wg.Done()
		if lat > 0 {
			clock.Sleep(context.Background(), n.clk, lat)
		}
		n.handle(dst, env)
	})
}

// latency returns the configured one-way latency of a link.
func (n *Inproc) latency(from, to msg.NodeID) time.Duration {
	if lat := n.opts.Latency; lat != nil {
		return lat(from, to)
	}
	return 0
}

// handle executes one delivered envelope: reply correlation through the
// tracker (which never blocks, so dispatch may call this for a reply on
// whatever goroutine produced it) or the node's handler, whose answer goes
// back through deliver on this same goroutine.
func (n *Inproc) handle(dst *inprocNode, env msg.Envelope) {
	if env.Reply {
		dst.calls.deliver(env.CorrID, env.Msg)
		return
	}
	resp, err := dst.handler(context.Background(), env.From, env.Msg)
	if env.CorrID == 0 {
		return // one-way message; response (if any) is discarded
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
	src, lerr := n.lookup(env.From)
	if lerr != nil {
		return // caller vanished; nothing to reply to
	}
	n.deliver(dst.id, src, msg.Envelope{From: dst.id, CorrID: env.CorrID, Reply: true, Msg: payload})
}

// ID implements Node.
func (nd *inprocNode) ID() msg.NodeID { return nd.id }

// Send implements Node. An open breaker toward the destination fails
// fast: one-way messages to a dark peer are pure loss anyway.
func (nd *inprocNode) Send(to msg.NodeID, m msg.Message) error {
	if nd.health.state(to) == PeerOpen {
		return ErrBreakerOpen
	}
	dst, err := nd.net.lookup(to)
	if err != nil {
		return err
	}
	nd.net.deliver(nd.id, dst, msg.Envelope{From: nd.id, Msg: m})
	return nil
}

// Call implements Node: CallAsync followed by Wait.
func (nd *inprocNode) Call(ctx context.Context, to msg.NodeID, m msg.Message) (msg.Message, error) {
	p, err := nd.CallAsync(ctx, to, m)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx)
}

// CallAsync implements Node.
func (nd *inprocNode) CallAsync(ctx context.Context, to msg.NodeID, m msg.Message) (*PendingCall, error) {
	if err := nd.health.allow(to); err != nil {
		return nil, err
	}
	dst, err := nd.net.lookup(to)
	if err != nil {
		nd.health.abortProbe(to)
		return nil, err
	}
	deadline := callDeadline(ctx, nd.net.clk, nd.net.opts.CallTimeout)
	id, ch, rerr := nd.calls.register(ctx, to, deadline)
	if rerr != nil {
		nd.health.abortProbe(to)
		return nil, rerr
	}
	nd.net.deliver(nd.id, dst, msg.Envelope{From: nd.id, CorrID: id, Msg: m})
	return &PendingCall{c: nd.calls, id: id, ch: ch}, nil
}

// countRetry feeds the network's wire_retries counter (retryCounter).
func (nd *inprocNode) countRetry() {
	if nd.net.retries != nil {
		nd.net.retries.Inc()
	}
}

// Clock implements Node.
func (nd *inprocNode) Clock() clock.Clock { return nd.net.clk }

// Close implements Node.
func (nd *inprocNode) Close() error {
	nd.net.mu.Lock()
	delete(nd.net.nodes, nd.id)
	nd.net.mu.Unlock()
	nd.calls.close()
	return nil
}
