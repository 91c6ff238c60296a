package server

import (
	"sync"

	"locsvc/internal/msg"
	"locsvc/internal/transport"
)

// notifier owns outbound event delivery: per-destination bounded queues,
// each drained on demand by one task on the transport's handler executor
// that sends with the PathRetry budget.
// The shape exists for backpressure isolation — a slow, lossy, or dead
// subscriber fills and stalls only its own queue while the event
// dispatcher (and the update pipeline behind it) keeps running, and other
// destinations drain unimpeded.
//
// Two queue disciplines per destination:
//
//   - Keyed, latest-wins: count reports ("count:<sub>") and predicate
//     transition notifications ("notify:<sub>"). Only the newest message
//     per key survives; superseded ones count event_notify_coalesced.
//     These messages carry absolute state, so delivering only the latest
//     is exactly the coalescing the pipeline promises.
//   - FIFO with a drop-oldest bound: meeting notifications, which are
//     discrete occurrences and cannot coalesce. Overflow drops the oldest
//     and counts event_notify_dropped; the periodic resync re-fires pairs
//     that are still meeting.
type notifier struct {
	s     *Server
	mu    sync.Mutex
	dests map[msg.NodeID]*notifyQueue
}

type notifyQueue struct {
	keyed    map[string]msg.Message
	order    []string // keys in arrival order, minus the ones superseded in place
	fifo     []msg.Message
	draining bool
}

func newNotifier(s *Server) *notifier {
	return &notifier{s: s, dests: make(map[msg.NodeID]*notifyQueue)}
}

func (n *notifier) queueFor(to msg.NodeID) *notifyQueue {
	q := n.dests[to]
	if q == nil {
		q = &notifyQueue{keyed: make(map[string]msg.Message)}
		n.dests[to] = q
	}
	return q
}

// EnqueueKeyed queues m for to, replacing any undelivered message under
// the same key.
func (n *notifier) EnqueueKeyed(to msg.NodeID, key string, m msg.Message) {
	n.mu.Lock()
	q := n.queueFor(to)
	if _, ok := q.keyed[key]; ok {
		n.s.met.Counter("event_notify_coalesced").Inc()
	} else {
		q.order = append(q.order, key)
	}
	q.keyed[key] = m
	n.startDrainLocked(to, q)
	n.mu.Unlock()
}

// EnqueueFIFO queues m for to in arrival order, dropping the oldest
// queued message when the destination's queue is at its bound.
func (n *notifier) EnqueueFIFO(to msg.NodeID, m msg.Message) {
	n.mu.Lock()
	q := n.queueFor(to)
	if len(q.fifo) >= n.s.opts.EventNotifyQueueDepth {
		q.fifo = q.fifo[1:]
		n.s.met.Counter("event_notify_dropped").Inc()
	}
	q.fifo = append(q.fifo, m)
	n.startDrainLocked(to, q)
	n.mu.Unlock()
}

// startDrainLocked starts the destination's drain if it is not already
// running. Caller holds n.mu.
func (n *notifier) startDrainLocked(to msg.NodeID, q *notifyQueue) {
	if q.draining || !n.s.beginBackground() {
		// Already draining — or shutting down: leave the queue; Close is
		// tearing the node down.
		return
	}
	q.draining = true
	transport.Go(func() { n.drain(to) })
}

// drain delivers one destination's queue to empty, keyed messages first
// (they carry the freshest state), then FIFO. Sends within one
// destination are serialized, so ordering per subscription is preserved
// modulo retry-induced duplicates — which receivers dedupe by seq.
func (n *notifier) drain(to msg.NodeID) {
	s := n.s
	defer s.wg.Done()
	for {
		n.mu.Lock()
		q := n.dests[to]
		var m msg.Message
		switch {
		case len(q.order) > 0:
			key := q.order[0]
			q.order = q.order[1:]
			m = q.keyed[key]
			delete(q.keyed, key)
		case len(q.fifo) > 0:
			m = q.fifo[0]
			q.fifo = q.fifo[1:]
		default:
			q.draining = false
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		if s.ctx.Err() != nil {
			// Shutting down: a best-effort flush, no retry loop to wait out.
			s.sendOrCount(to, m)
			continue
		}
		// The same reasoning as forwardPath: an event notification is the
		// only copy of the transition it announces, so each is re-sent
		// until the peer's ack or the budget runs out — every attempt has
		// its PerTryTimeout, every backoff its cap — or the server closes.
		if _, err := transport.CallWithRetry(s.ctx, s.node, func() msg.NodeID { return to }, m, s.opts.PathRetry); err != nil {
			s.met.Counter("event_notify_failed").Inc()
		}
	}
}
