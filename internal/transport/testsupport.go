package transport

// Test support: fault hooks and leak probes that only tests call. No binary
// links them; TestEveryFunctionReached exempts this file. Each hook names
// a soak or parity test that drives it.

import (
	"math/rand"
	"sync"

	"locsvc/internal/msg"
)

// NewLoss returns a loss model that drops with probability rate in [0,1],
// drawing from a source seeded with seed; seed 0 means 1. Driven by
// TestChaosSoak, TestLeafRestartSoak, TestQueriesUnderMessageLoss,
// TestMultiplexSoak and TestSeededFaultsDeterministic.
func NewLoss(rate float64, seed int64) *Loss {
	if seed == 0 {
		seed = 1
	}
	return &Loss{rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// SetRate changes the loss probability at runtime. TestLeafRestartSoak uses
// it to stage lossless setup and verification phases around a lossy
// window; TestSeededFaultsDeterministic pins that a phase at rate 0 draws
// nothing.
func (l *Loss) SetRate(rate float64) {
	l.mu.Lock()
	l.rate = rate
	l.mu.Unlock()
}

// Plan is a FaultPlan that drops each delivery with the loss probability.
// TestChaosSoak, TestLeafRestartSoak and TestQueriesUnderMessageLoss pass it
// as InprocOptions.FaultPlan.
func (l *Loss) Plan(_, _ msg.NodeID, _ msg.Envelope) Fault {
	return Fault{Drop: l.Drop()}
}

// SetLoss injects receive loss: each incoming datagram is dropped as l
// decides, after the datagram counters but before decoding — as if the
// kernel had lost it; nil removes it. All of the network's read loops draw
// from the one l. TestMultiplexSoak uses it to exercise the tracker's
// timeout path against a real socket, TestUDPBurstIntoStalledReader to
// stall a reader on l's lock.
func (u *UDP) SetLoss(l *Loss) { u.loss.Store(l) }

// NodesDown is a FaultPlan that pauses nodes: every delivery to or from a
// down node is silently dropped, but the node stays attached — callers see
// timeouts (and eventually open breakers), not ErrUnknownNode. It models a
// crashed, wedged or fully partitioned process. Every other delivery goes
// to the plan it wraps, so a wrapped seeded Loss draws for exactly the
// deliveries between live nodes. Driven by TestChaosSoak, TestLeafRestartSoak,
// TestDegradedQueriesWithDarkLeaf, TestNothingTimedWhileClockStands and
// the breaker tests.
type NodesDown struct {
	next func(from, to msg.NodeID, env msg.Envelope) Fault

	mu   sync.Mutex
	down map[msg.NodeID]bool
}

// NewNodesDown returns a plan with every node up that defers to next; nil
// delivers normally.
func NewNodesDown(next func(from, to msg.NodeID, env msg.Envelope) Fault) *NodesDown {
	return &NodesDown{next: next, down: make(map[msg.NodeID]bool)}
}

// SetNodeDown pauses or resumes a node.
func (d *NodesDown) SetNodeDown(id msg.NodeID, down bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if down {
		d.down[id] = true
	} else {
		delete(d.down, id)
	}
}

// Plan is the FaultPlan to pass as InprocOptions.FaultPlan.
func (d *NodesDown) Plan(from, to msg.NodeID, env msg.Envelope) Fault {
	d.mu.Lock()
	severed := d.down[from] || d.down[to]
	d.mu.Unlock()
	if severed {
		return Fault{Drop: true}
	}
	if d.next == nil {
		return Fault{}
	}
	return d.next(from, to, env)
}

// PeerState returns the breaker state of node "of" toward destination
// "to"; PeerClosed when breakers are disabled or "of" is not attached.
// TestChaosSoak waits on it for a dark leaf's breaker to open and close.
func (n *Inproc) PeerState(of, to msg.NodeID) PeerState {
	nd, err := n.lookup(of)
	if err != nil {
		return PeerClosed
	}
	return nd.health.state(to)
}

// PendingCalls implements Node. TestChaosSoak (through
// server.PendingCalls) and TestMultiplexSoak assert it drops to zero at
// quiesce.
func (e *endpoint) PendingCalls() int { return e.calls.pending() }

// pending returns the number of in-flight entries.
func (c *calls) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
