package transport

import (
	"context"
	"sync"
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
	// FaultPlan, if non-nil, scripts the fault of every delivery. Tracker
	// tests use it to target specific envelopes (a reply's CorrID, a
	// particular message type or link) with exact drops, duplicates and
	// delays; soaks pass a seeded Loss's Plan, and a NodesDown's Plan pauses
	// whole nodes.
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
	// Metrics receives wire_retries, wire_call_timeouts, wire_late_replies,
	// wire_breaker_open and peer_state series (shared by every node of this
	// network); nil gets a private registry.
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
	mu      sync.RWMutex
	nodes   map[msg.NodeID]*inprocNode
	opts    InprocOptions
	calling *callConfig
	wg      sync.WaitGroup
	closed  bool
}

var _ Network = (*Inproc)(nil)

// NewInproc creates an in-process network.
func NewInproc(opts InprocOptions) *Inproc {
	clk := opts.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Inproc{
		nodes: make(map[msg.NodeID]*inprocNode),
		opts:  opts,
		calling: newCallConfig(callConfig{
			clk:              clk,
			metrics:          reg,
			callTimeout:      opts.CallTimeout,
			sweepEvery:       opts.SweepInterval,
			maxInFlight:      opts.MaxInFlight,
			breakerThreshold: opts.BreakerThreshold,
			breakerCooldown:  opts.BreakerCooldown,
		}),
	}
}

// Clock returns the network's clock.
func (n *Inproc) Clock() clock.Clock { return n.calling.clk }

// inprocNode is an endpoint whose link is its network.
type inprocNode struct {
	endpoint
	net *Inproc
}

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
	node := &inprocNode{endpoint: newEndpoint(id, h, n.calling, n), net: n}
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
		nd.Close()
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

// addTask reserves a slot in the delivery WaitGroup, refusing once the
// network is closed. Every asynchronous delivery stage acquires its slot
// through this guard: Close flips closed under the same mutex before it
// waits, so a successful Add always happens-before the Wait and a late
// delivery is dropped instead of racing the shutdown (the UDP service
// model already makes loss-at-close legal).
func (n *Inproc) addTask() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return false
	}
	n.wg.Add(1)
	return true
}

// doneTask frees a slot addTask reserved.
func (n *Inproc) doneTask() { n.wg.Done() }

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

// send is the link's way out: the destination is looked up and the
// envelope delivered.
func (n *Inproc) send(to msg.NodeID, env msg.Envelope) error {
	dst, err := n.lookup(to)
	if err != nil {
		return err
	}
	n.deliver(dst, env)
	return nil
}

// deliver runs the FaultPlan for one envelope and dispatches the surviving
// copies, a delayed copy from a timer on the network's clock. The plan runs
// synchronously on the sender's goroutine, so a sequential send schedule
// consults it (and a seeded Loss draws) in a deterministic order regardless
// of timer interleaving. A network without a plan skips the stage.
func (n *Inproc) deliver(dst *inprocNode, env msg.Envelope) {
	plan := n.opts.FaultPlan
	if plan == nil {
		n.dispatch(dst, env)
		return
	}
	f := plan(env.From, dst.id, env)
	if f.Drop {
		return
	}
	for i := 0; i <= f.Duplicate; i++ {
		if f.Delay > 0 {
			if !n.addTask() {
				continue
			}
			n.calling.clk.AfterFunc(f.Delay, func() {
				defer n.doneTask()
				n.dispatch(dst, env)
			})
			continue
		}
		n.dispatch(dst, env)
	}
}

// dispatch hands one envelope to its node. Without a modelled latency the
// node receives it at once (a reply resolves on this goroutine, a request
// goes to the handler executor); a link with a latency to sleep out hands
// either kind to a worker that sleeps, then handles it.
func (n *Inproc) dispatch(dst *inprocNode, env msg.Envelope) {
	lat := n.latency(env.From, dst.id)
	if lat <= 0 {
		dst.receive(env)
		return
	}
	if !n.addTask() {
		return
	}
	handlers.run(func() {
		defer n.doneTask()
		clock.Sleep(context.Background(), n.calling.clk, lat)
		dst.handle(env)
	})
}

// latency returns the configured one-way latency of a link.
func (n *Inproc) latency(from, to msg.NodeID) time.Duration {
	if lat := n.opts.Latency; lat != nil {
		return lat(from, to)
	}
	return 0
}

// Close implements Node.
func (nd *inprocNode) Close() error {
	nd.net.mu.Lock()
	delete(nd.net.nodes, nd.id)
	nd.net.mu.Unlock()
	nd.calls.close()
	return nil
}
