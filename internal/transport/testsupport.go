package transport

// Test support: fault hooks and leak probes that only tests call. No binary
// links them; TestEveryFunctionReached exempts this file. Each hook names
// a soak or parity test that drives it.

import (
	"math/rand"

	"locsvc/internal/msg"
)

// NewLoss returns a loss model that drops with probability rate in [0,1],
// drawing from a source seeded with seed; seed 0 means 1. Driven by
// TestChaosSoak, TestFailoverSoak, TestQueriesUnderMessageLoss,
// TestMultiplexSoak and TestSeededFaultsDeterministic.
func NewLoss(rate float64, seed int64) *Loss {
	if seed == 0 {
		seed = 1
	}
	return &Loss{rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// SetRate changes the loss probability at runtime. TestFailoverSoak uses
// it to stage lossless setup and verification phases around a lossy
// window; TestSeededFaultsDeterministic pins that a phase at rate 0 draws
// nothing.
func (l *Loss) SetRate(rate float64) {
	l.mu.Lock()
	l.rate = rate
	l.mu.Unlock()
}

// Plan is a FaultPlan that drops each delivery with the loss probability.
// TestChaosSoak, TestFailoverSoak and TestQueriesUnderMessageLoss pass it
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

// SetNodeDown pauses or resumes a node: while down, every delivery to or
// from it is silently dropped, but the node stays attached — callers see
// timeouts (and eventually open breakers), not ErrUnknownNode. It models a
// crashed, wedged or fully partitioned process. Driven by TestChaosSoak,
// TestFailoverSoak and TestDegradedQueriesWithDarkLeaf.
func (n *Inproc) SetNodeDown(id msg.NodeID, down bool) {
	n.faultMu.Lock()
	if down {
		n.down[id] = true
	} else {
		delete(n.down, id)
	}
	n.noteFaultsLocked()
	n.faultMu.Unlock()
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
// server.PendingCalls) asserts it drops to zero at quiesce.
func (nd *inprocNode) PendingCalls() int { return nd.calls.pending() }

// PendingCalls implements Node. TestMultiplexSoak asserts it drops to zero
// at quiesce.
func (nd *udpNode) PendingCalls() int { return nd.calls.pending() }

// pending returns the number of in-flight entries.
func (c *calls) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
