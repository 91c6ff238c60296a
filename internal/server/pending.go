package server

import (
	"context"
	"sync"
	"sync/atomic"

	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// pendingBound is how many replies an open operation holds before its
// collector takes them; one more is dropped and counted in
// pending_reply_overflow. The collector drains continuously, so only a
// burst comes near it: a range query's partial results from every leaf
// its area overlaps, duplicated datagrams included.
const pendingBound = 256

// pending tracks distributed operations an entry server is waiting on:
// responses arrive as one-way messages matched by operation id (the paper's
// "entry server collects the partial results" pattern in Algorithms 6-4 and
// 6-5).
type pending struct {
	mu   sync.Mutex
	ops  map[uint64]*pendingOp
	next atomic.Uint64
	// late counts replies to no open operation (timed out or answered
	// already), overflow replies dropped past pendingBound.
	late, overflow *metrics.Counter
}

// pendingOp is one open operation's reply slot: the replies delivered and
// not taken yet, held under the table's mutex, and a wake-up its collector
// selects on beside its timer and context. The queue grows with the
// replies that actually wait; two fit inline, so a position query's reply
// and its duplicate allocate nothing more.
type pendingOp struct {
	id uint64
	// ready holds a token when a reply was delivered since the collector
	// last drew one; a token may outlive its reply, so the collector
	// looks at the queue again.
	ready chan struct{}
	// queue holds the replies waiting, oldest first; guarded by
	// pending.mu.
	queue  []msg.Message
	inline [2]msg.Message
}

func newPending(met *metrics.Registry) *pending {
	return &pending{
		ops:      make(map[uint64]*pendingOp),
		late:     met.Counter("pending_reply_late"),
		overflow: met.Counter("pending_reply_overflow"),
	}
}

// open allocates an operation id and its reply slot.
func (p *pending) open() *pendingOp {
	op := &pendingOp{id: p.next.Add(1), ready: make(chan struct{}, 1)}
	op.queue = op.inline[:0]
	p.mu.Lock()
	p.ops[op.id] = op
	p.mu.Unlock()
	return op
}

// close discards the operation; a reply arriving later is dropped and
// counted as late.
func (p *pending) close(op *pendingOp) {
	p.mu.Lock()
	delete(p.ops, op.id)
	p.mu.Unlock()
}

// deliver routes a response to its operation. Responses for unknown (timed
// out) operations and those past pendingBound are dropped and counted,
// matching UDP best-effort semantics.
func (p *pending) deliver(id uint64, m msg.Message) bool {
	p.mu.Lock()
	op, ok := p.ops[id]
	if !ok {
		p.mu.Unlock()
		p.late.Inc()
		return false
	}
	if len(op.queue) >= pendingBound {
		p.mu.Unlock()
		p.overflow.Inc()
		return false
	}
	op.queue = append(op.queue, m)
	p.mu.Unlock()
	select {
	case op.ready <- struct{}{}:
	default: // a token is waiting already
	}
	return true
}

// await returns op's oldest waiting reply, waiting for one until expired
// is closed or ctx is done. At the timeout it returns nil and no error,
// once ctx is done nil and ctx's error. A reply already waiting is
// returned whatever the timer and ctx say.
func (p *pending) await(ctx context.Context, op *pendingOp, expired <-chan struct{}) (msg.Message, error) {
	for {
		p.mu.Lock()
		if len(op.queue) > 0 {
			m := op.queue[0]
			n := copy(op.queue, op.queue[1:])
			op.queue[n] = nil
			op.queue = op.queue[:n]
			p.mu.Unlock()
			return m, nil
		}
		p.mu.Unlock()
		// A reply delivered from here on leaves a token in op.ready.
		select {
		case <-op.ready:
		case <-expired:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
