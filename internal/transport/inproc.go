package transport

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

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
	// Delay postpones delivery, modelling queueing or a detour. Combined
	// with a shorter call deadline it turns a reply into a late reply.
	Delay time.Duration
}

// InprocOptions configure the in-process network.
type InprocOptions struct {
	// Latency, if non-nil, returns the one-way delivery delay between two
	// nodes. Use it to model the paper's LAN (e.g. a few hundred
	// microseconds per hop) or wide-area placements.
	Latency func(from, to msg.NodeID) time.Duration
	// DropRate is the probability in [0,1] that a one-way message is
	// silently lost, modelling UDP loss for failure-injection tests.
	// Replies to calls are subject to the same loss.
	DropRate float64
	// DupRate is the probability in [0,1] that a message is delivered
	// twice, modelling datagram duplication.
	DupRate float64
	// ReorderRate is the probability in [0,1] that a message is held back
	// and released only after the next message on the same (from, to)
	// pair overtakes it (or after a short safety delay when no successor
	// shows up), modelling datagram reordering.
	ReorderRate float64
	// DelayJitter, if positive, adds a uniform random delay in
	// [0, DelayJitter) to every delivery.
	DelayJitter time.Duration
	// Seed seeds every random fault decision (drop, duplicate, reorder,
	// jitter); zero uses a fixed default. With a single sending
	// goroutine the fault sequence is fully deterministic.
	Seed int64
	// FaultPlan, if non-nil, scripts a deterministic fault for every
	// delivery before the seeded knobs draw; tracker tests use it to
	// target specific envelopes (a reply's CorrID, a particular message
	// type) with exact drops, duplicates and delays.
	FaultPlan func(from, to msg.NodeID, env msg.Envelope) Fault
	// OnDeliver, if non-nil, observes every delivered message; used by
	// the simulation harness to count messages and hops.
	OnDeliver func(from, to msg.NodeID, m msg.Message)
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
}

// pairKey identifies one directed (sender, receiver) link.
type pairKey struct {
	from, to msg.NodeID
}

// heldEnv is an envelope held back by the reorder fault, waiting for a
// successor to overtake it.
type heldEnv struct {
	env msg.Envelope
}

// Inproc is an in-process Network: nodes are handler functions, each
// delivered request handled concurrently on the handler executor.
type Inproc struct {
	mu     sync.RWMutex
	nodes  map[msg.NodeID]*inprocNode
	opts   InprocOptions
	wg     sync.WaitGroup
	closed bool

	// faulty is false while nothing can touch a delivery — no plan, rate or
	// jitter configured, no node down, no link blocked — and lets deliver
	// skip the fault stage and its lock. Stored under dropMu by everything
	// that changes one of those.
	faulty atomic.Bool

	// dropMu guards rng (all seeded fault draws), held (the reorder
	// hold-back slots) and the node-level fault maps down/blocked.
	dropMu sync.Mutex
	rng    *rand.Rand
	// dropRate is the live loss probability, seeded from opts.DropRate
	// and adjustable via SetDropRate.
	dropRate float64
	held     map[pairKey]*heldEnv
	// down marks paused nodes: every delivery to or from a down node is
	// silently dropped, modelling a crashed or partitioned process whose
	// address still resolves (unlike Close, which unregisters the id).
	down map[msg.NodeID]bool
	// blocked drops deliveries on specific directed links, modelling
	// asymmetric partitions.
	blocked map[pairKey]bool

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
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	n := &Inproc{
		nodes:    make(map[msg.NodeID]*inprocNode),
		opts:     opts,
		dropRate: opts.DropRate,
		rng:      rand.New(rand.NewSource(seed)),
		held:     make(map[pairKey]*heldEnv),
		down:     make(map[msg.NodeID]bool),
		blocked:  make(map[pairKey]bool),
	}
	if opts.Metrics != nil {
		n.retries = opts.Metrics.Counter("wire_retries")
		n.callTimeouts = opts.Metrics.Counter("wire_call_timeouts")
		n.lateReplies = opts.Metrics.Counter("wire_late_replies")
	}
	n.noteFaultsLocked()
	return n
}

// noteFaultsLocked recomputes faulty. Caller holds dropMu (or is the
// constructor).
func (n *Inproc) noteFaultsLocked() {
	o := &n.opts
	n.faulty.Store(o.FaultPlan != nil || o.DupRate > 0 || o.ReorderRate > 0 || o.DelayJitter > 0 ||
		n.dropRate > 0 || len(n.down) > 0 || len(n.blocked) > 0)
}

// SetNodeDown pauses or resumes a node: while down, every delivery to or
// from it is silently dropped, but the node stays attached — callers see
// timeouts (and eventually open breakers), not ErrUnknownNode. It models a
// crashed, wedged or fully partitioned process.
func (n *Inproc) SetNodeDown(id msg.NodeID, down bool) {
	n.dropMu.Lock()
	if down {
		n.down[id] = true
	} else {
		delete(n.down, id)
	}
	n.noteFaultsLocked()
	n.dropMu.Unlock()
}

// Block installs or removes an asymmetric partition: while blocked, every
// delivery on the directed link from→to is silently dropped; the reverse
// direction is unaffected.
func (n *Inproc) Block(from, to msg.NodeID, blocked bool) {
	n.dropMu.Lock()
	if blocked {
		n.blocked[pairKey{from, to}] = true
	} else {
		delete(n.blocked, pairKey{from, to})
	}
	n.noteFaultsLocked()
	n.dropMu.Unlock()
}

// nodeFaulted reports whether the directed link from→to is currently
// severed by a node-level fault.
func (n *Inproc) nodeFaulted(from, to msg.NodeID) bool {
	n.dropMu.Lock()
	defer n.dropMu.Unlock()
	if len(n.down) == 0 && len(n.blocked) == 0 {
		return false
	}
	return n.down[from] || n.down[to] || n.blocked[pairKey{from, to}]
}

// PeerState returns the breaker state of node "of" toward destination
// "to"; PeerClosed when breakers are disabled or "of" is not attached.
func (n *Inproc) PeerState(of, to msg.NodeID) PeerState {
	nd, err := n.lookup(of)
	if err != nil {
		return PeerClosed
	}
	return nd.health.state(to)
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
		threshold: n.opts.BreakerThreshold,
		cooldown:  n.opts.BreakerCooldown,
		owner:     id,
		metrics:   n.opts.Metrics,
	})
	tc := trackerConfig{
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
// (delayed or held envelopes) run to completion; only brand-new entry
// points go through the closed guard.
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

// drawP draws one seeded probability decision.
func (n *Inproc) drawP(p float64) bool {
	if p <= 0 {
		return false
	}
	n.dropMu.Lock()
	defer n.dropMu.Unlock()
	return n.rng.Float64() < p
}

// SetDropRate changes the network-wide datagram loss probability at
// runtime. Soak tests use it to stage lossless setup and verification
// phases around a lossy fault window.
func (n *Inproc) SetDropRate(p float64) {
	n.dropMu.Lock()
	n.dropRate = p
	n.noteFaultsLocked()
	n.dropMu.Unlock()
}

// dropP returns the current loss probability.
func (n *Inproc) dropP() float64 {
	n.dropMu.Lock()
	defer n.dropMu.Unlock()
	return n.dropRate
}

// drawJitter draws one seeded jitter delay.
func (n *Inproc) drawJitter() time.Duration {
	if n.opts.DelayJitter <= 0 {
		return 0
	}
	n.dropMu.Lock()
	defer n.dropMu.Unlock()
	return time.Duration(n.rng.Int63n(int64(n.opts.DelayJitter)))
}

// drawFault combines the scripted plan and the seeded knobs into one fault
// decision for a delivery.
func (n *Inproc) drawFault(from, to msg.NodeID, env msg.Envelope) Fault {
	var f Fault
	if plan := n.opts.FaultPlan; plan != nil {
		f = plan(from, to, env)
	}
	if n.drawP(n.dropP()) {
		f.Drop = true
	}
	if n.drawP(n.opts.DupRate) {
		f.Duplicate++
	}
	f.Delay += n.drawJitter()
	return f
}

// deliver runs the fault stage for one envelope, then hands the surviving
// copies to the reorder stage and on to dispatch. Every random draw —
// drop, duplicate, jitter and reorder — happens here, synchronously on
// the sender's goroutine, so a sequential send schedule consumes the
// seeded rng in a deterministic order regardless of timer interleaving.
// A network with no fault of any kind configured skips the stage, and with
// it two trips through the network-wide dropMu per envelope.
func (n *Inproc) deliver(from msg.NodeID, dst *inprocNode, env msg.Envelope) {
	if !n.faulty.Load() {
		n.dispatch(from, dst, env, false)
		return
	}
	if n.nodeFaulted(from, dst.id) {
		return
	}
	f := n.drawFault(from, dst.id, env)
	if f.Drop {
		return
	}
	reorder := n.drawP(n.opts.ReorderRate)
	for i := 0; i <= f.Duplicate; i++ {
		if f.Delay > 0 {
			if !n.addDelivery() {
				continue
			}
			time.AfterFunc(f.Delay, func() {
				defer n.wg.Done()
				n.enqueue(from, dst, env, reorder, true)
			})
			continue
		}
		n.enqueue(from, dst, env, reorder, false)
	}
}

// enqueue applies the reorder hold-back, then dispatches. slotHeld reports
// whether the caller holds a delivery slot for the duration of this call
// (true from tracked timer callbacks, false from a sender's goroutine).
func (n *Inproc) enqueue(from msg.NodeID, dst *inprocNode, env msg.Envelope, reorder, slotHeld bool) {
	if n.opts.ReorderRate > 0 {
		key := pairKey{from, dst.id}
		n.dropMu.Lock()
		if h, ok := n.held[key]; ok {
			// A successor arrived: it overtakes, then the held envelope
			// is released behind it.
			delete(n.held, key)
			n.dropMu.Unlock()
			n.dispatch(from, dst, env, slotHeld)
			n.dispatch(from, dst, h.env, slotHeld)
			return
		}
		if reorder {
			h := &heldEnv{env: env}
			n.held[key] = h
			n.dropMu.Unlock()
			// Safety valve: release the held envelope even if no
			// successor ever overtakes it.
			if !n.addStage(slotHeld) {
				return
			}
			time.AfterFunc(5*time.Millisecond, func() {
				defer n.wg.Done()
				n.dropMu.Lock()
				if n.held[key] != h {
					n.dropMu.Unlock()
					return
				}
				delete(n.held, key)
				n.dropMu.Unlock()
				n.dispatch(from, dst, h.env, true)
			})
			return
		}
		n.dropMu.Unlock()
	}
	n.dispatch(from, dst, env, slotHeld)
}

// dispatch delivers one envelope. A request is handled on the handler
// executor: concurrently with its sender and with every other envelope, in
// no particular order. A reply is resolved right here, on the goroutine that
// produced it (resolving never blocks); only a link with a modelled latency
// to sleep out hands the reply to a worker too. slotHeld as in enqueue.
func (n *Inproc) dispatch(from msg.NodeID, dst *inprocNode, env msg.Envelope, slotHeld bool) {
	lat := n.latency(from, dst.id)
	if env.Reply && lat <= 0 {
		n.handle(from, dst, env)
		return
	}
	if !n.addStage(slotHeld) {
		return
	}
	handlers.run(func() {
		defer n.wg.Done()
		time.Sleep(lat)
		n.handle(from, dst, env)
	})
}

// latency returns the configured one-way latency of a link.
func (n *Inproc) latency(from, to msg.NodeID) time.Duration {
	if lat := n.opts.Latency; lat != nil {
		return lat(from, to)
	}
	return 0
}

// handle executes one delivered envelope: observation, then reply
// correlation through the tracker (which never blocks, so dispatch may call
// this for a reply on whatever goroutine produced it) or the node's
// handler, whose answer goes back through deliver on this same goroutine.
func (n *Inproc) handle(from msg.NodeID, dst *inprocNode, env msg.Envelope) {
	if obs := n.opts.OnDeliver; obs != nil {
		obs(from, dst.id, env.Msg)
	}
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
	deadline := callDeadline(ctx, nd.net.opts.CallTimeout)
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

// PendingCalls implements Node.
func (nd *inprocNode) PendingCalls() int { return nd.calls.pending() }

// Close implements Node.
func (nd *inprocNode) Close() error {
	nd.net.mu.Lock()
	delete(nd.net.nodes, nd.id)
	nd.net.mu.Unlock()
	nd.calls.close()
	return nil
}
