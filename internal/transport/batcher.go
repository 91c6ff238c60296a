package transport

import (
	"net"
	"runtime"
	"sync"

	"locsvc/internal/msg"
	"locsvc/internal/wire"
)

// Outbound coalescing is self-clocked: there is no timer anywhere between
// an envelope and the wire. An envelope added to an idle node wakes the
// node's flusher goroutine and leaves as soon as that goroutine gets a
// processor; envelopes added while the flusher waits for a processor, or
// is inside a send for another batch, join their destination's open batch
// and leave with it. Once woken, the flusher yields its processor once
// (runtime.Gosched) before it drains, so every goroutine already runnable
// — handlers sending replies, a client issuing its pipeline — adds to the
// open batches first. On an idle node nothing else is runnable, the yield
// returns at once and costs a lone envelope nothing. So batches form
// exactly when envelopes arrive faster than they can be sent — under load
// — and a lone envelope on a quiet node travels alone, at once. A batch
// that reaches the count cap (BatchMax) or would outgrow MaxDatagram is
// sent by the goroutine that filled it, which is the backpressure: at most
// one open batch per destination ever waits for the flusher. At a cap of
// one every envelope fills its own batch, so it leaves on its sender's
// goroutine and the flusher is never woken.

// flusher is that rule for the UDP batcher: one goroutine that calls drain
// once for every kick, or run of kicks, since its last call began.
type flusher struct {
	// drain sends everything that is open. It runs only on the flusher's
	// goroutine.
	drain func()
	// wake holds at most one token: drain takes everything there is, so a
	// second token would say nothing the first does not.
	wake     chan struct{}
	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}
}

func startFlusher(drain func()) *flusher {
	f := &flusher{
		drain: drain,
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go f.loop()
	return f
}

func (f *flusher) loop() {
	defer close(f.done)
	for {
		select {
		case <-f.wake:
			// Let whatever is runnable add first: the yield is the
			// wait of the rule above, and on an idle node it is none.
			runtime.Gosched()
			f.drain()
		case <-f.quit:
			return
		}
	}
}

// kick tells the flusher there is something to drain. It never blocks.
func (f *flusher) kick() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// stop ends the flusher and returns once its goroutine has exited. What is
// still open then is the caller's to drain.
func (f *flusher) stop() {
	f.quitOnce.Do(func() { close(f.quit) })
	<-f.done
}

// batcher is the size-aware outbound coalescer of a UDP node: envelopes
// headed for the same destination are folded into one batch frame (one
// datagram). The wire format lives in wire.BatchBuilder; the batcher holds
// the open batches and the caps, the flusher decides when they leave.
type batcher struct {
	nd  *udpNode
	max int // count cap, ≥ 1
	fl  *flusher

	mu     sync.Mutex
	open   map[msg.NodeID]*pendingBatch
	closed bool

	// taken is drain's scratch list of detached batches.
	taken []*pendingBatch
}

// pendingBatch is the open batch for one destination. Batches are pooled:
// send resets one and hands it back, buffer included.
type pendingBatch struct {
	bb   wire.BatchBuilder
	addr *net.UDPAddr
}

var batchPool = sync.Pool{New: func() any { return new(pendingBatch) }}

func newBatcher(nd *udpNode, max int) *batcher {
	b := &batcher{nd: nd, max: max, open: make(map[msg.NodeID]*pendingBatch)}
	b.fl = startFlusher(b.drain)
	return b
}

// add enqueues one encoded envelope frame for dst. The frame is copied, so
// the caller may recycle its buffer immediately. A batch this frame fills,
// or does not fit into any more, is sent here, after the lock is released;
// at a cap of one every frame fills its batch and leaves at once. The error
// is the failed write of a datagram that carried this frame.
func (b *batcher) add(dst msg.NodeID, addr *net.UDPAddr, frame []byte) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return b.nd.transmit(addr, frame, 1)
	}
	var spill *pendingBatch
	pb := b.open[dst]
	if pb != nil && pb.bb.SizeWith(len(frame)) > MaxDatagram {
		spill, pb = pb, nil
	}
	if pb == nil {
		pb = batchPool.Get().(*pendingBatch)
		pb.addr = addr
		b.open[dst] = pb
	}
	pb.bb.Add(frame)
	n := pb.bb.Count()
	full := n >= b.max
	if full {
		delete(b.open, dst)
	}
	b.mu.Unlock()
	if n == 1 && !full {
		// A new open batch: the only state the flusher may not know of.
		b.fl.kick()
	}
	if spill != nil {
		// The spilled envelopes' callers have returned: a failed write
		// is only counted (wire_write_errors).
		_ = b.send(spill)
	}
	if !full {
		return nil
	}
	return b.send(pb)
}

// drain detaches every open batch and sends them.
func (b *batcher) drain() {
	b.mu.Lock()
	for dst, pb := range b.open {
		b.taken = append(b.taken, pb)
		delete(b.open, dst)
	}
	b.mu.Unlock()
	for i, pb := range b.taken {
		// No caller waits on a drained batch: a failed write is only
		// counted (wire_write_errors).
		_ = b.send(pb)
		b.taken[i] = nil
	}
	b.taken = b.taken[:0]
}

// send assembles pb into one datagram, transmits it, recycles pb and
// returns the write's error.
func (b *batcher) send(pb *pendingBatch) error {
	bp := wire.GetBuffer()
	data := pb.bb.AppendTo((*bp)[:0])
	*bp = data
	err := b.nd.transmit(pb.addr, data, pb.bb.Count())
	wire.PutBuffer(bp)
	pb.bb.Reset()
	pb.addr = nil
	batchPool.Put(pb)
	return err
}

// closeFlush routes subsequent adds straight to the socket, stops the
// flusher and sends what was still open. Called when the node detaches;
// later calls do nothing.
func (b *batcher) closeFlush() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.fl.stop()
	b.drain()
}
