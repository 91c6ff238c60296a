package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
	"locsvc/internal/wire"
)

// MaxDatagram bounds encoded envelope size: the largest payload a UDP
// datagram can physically carry (65,535-byte 16-bit length field minus
// the 8-byte UDP and 20-byte IP headers). Anything larger fails at encode
// time with the message type and encoded size — the kernel would only
// ever answer EMSGSIZE. Room for ~1,600 range-query entries per
// datagram; the paper's prototype likewise ran over a LAN with large UDP
// datagrams. A server splits its batches of path messages to fit it.
const MaxDatagram = 65507

// socketBuffer is the receive and send buffer requested for every node's
// socket. With no linger in front of it the kernel queue is the only queue
// between a windowless sender — a client's MaxInFlight pipelined calls, a
// leaf's path messages for a burst of registrations — and a read loop that
// shares its processors with the handlers it feeds. The kernel charges a
// minimum-size datagram some 800 bytes, so the 208 KiB Linux default drops
// the 257th; 4 MiB holds several thousand, a few nodes' worth of full
// in-flight windows. Best effort: the kernel clamps the request to
// net.core.rmem_max / wmem_max, and a refusal is ignored.
const socketBuffer = 4 << 20

// UDPOptions configure a UDP network.
type UDPOptions struct {
	// Metrics receives the network's wire-level counters; nil gets a
	// private registry, which UDP.Metrics returns.
	Metrics *metrics.Registry
	// BatchMax caps the envelopes one datagram carries; 0 and 1 both mean
	// a cap of one, so every envelope is its own datagram (a batch of one
	// is a legacy frame) and leaves on its sender's goroutine. Coalescing
	// is self-clocked (see batcher.go): no envelope ever waits for a
	// timer. One sent from an idle node leaves at once, alone; envelopes
	// for one destination share a datagram only when they are produced
	// faster than the node's flusher can put them on the wire.
	BatchMax int
	// BatchLinger is ignored: there is no linger any more. The field stays
	// only because bench/rig/world.go still sets it; it goes when that line
	// does.
	BatchLinger time.Duration
	// CallTimeout caps every Call/CallAsync deadline: the effective
	// deadline is the earlier of the context's and now+CallTimeout.
	// Zero means calls expire only on their own context's deadline
	// (pre-tracker behavior).
	CallTimeout time.Duration
	// SweepInterval is the timeout goroutine's scan cadence; zero uses
	// defaultSweepInterval.
	SweepInterval time.Duration
	// MaxInFlight caps outstanding calls per node for backpressure; zero
	// is unbounded.
	MaxInFlight int
	// BreakerThreshold enables per-peer circuit breakers: after that many
	// consecutive swept timeouts toward one destination, calls to it fail
	// fast with ErrBreakerOpen — no socket write, no in-flight slot —
	// until BreakerCooldown elapses and a probe call succeeds. Zero
	// disables breakers.
	BreakerThreshold int
	// BreakerCooldown is the open→half-open probe interval; zero uses
	// defaultBreakerCooldown.
	BreakerCooldown time.Duration
}

// UDP is a datagram Network. Node addresses are resolved through a static
// Directory (the deployment knows every server's address; clients and
// objects register themselves when attaching). It mirrors the paper's
// prototype, whose communication protocols are implemented on top of UDP.
//
// The hot path is allocation-lean: receive buffers are pooled and handed
// back as soon as the binary codec has decoded out of them (decoded
// envelopes share no memory with the datagram), and sends encode into
// pooled buffers with the size guard applied before the socket write.
// Outbound envelopes per destination are coalesced into batch frames of
// at most BatchMax envelopes (see the batcher); receive is always
// batch-aware, so a network capped at one envelope per datagram
// interoperates with a batching peer. Every socket asks for socketBuffer
// bytes of kernel buffer in each direction.
type UDP struct {
	opts UDPOptions

	mu     sync.RWMutex
	dir    map[msg.NodeID]*net.UDPAddr
	nodes  map[msg.NodeID]*udpNode
	closed bool
	wg     sync.WaitGroup

	// recvBufs recycles MaxDatagram-sized receive buffers across all of
	// the network's read loops.
	recvBufs sync.Pool

	// loss is the injected receive loss SetLoss installed (tests only);
	// nil, and read without a lock, when none is.
	loss atomic.Pointer[Loss]

	// met and the resolved counters below record wire-level traffic.
	// The registry is shared with the co-located server in lsd, so the
	// counters surface through DiagRes and lsctl stats.
	met          *metrics.Registry
	bytesIn      *metrics.Counter
	bytesOut     *metrics.Counter
	datagramsIn  *metrics.Counter
	datagramsOut *metrics.Counter
	writeErrors  *metrics.Counter
	decodeErrors *metrics.Counter
	oversize     *metrics.Counter
	batchesIn    *metrics.Counter
	batchesOut   *metrics.Counter
	envelopesIn  *metrics.Counter
	envelopesOut *metrics.Counter
	envsPerBatch *metrics.Histogram
	callTimeouts *metrics.Counter
	lateReplies  *metrics.Counter
	lossInjected *metrics.Counter
	retries      *metrics.Counter
}

var _ Network = (*UDP)(nil)

// Clock returns the network's clock, always the wall clock: datagrams
// cross real sockets in real time.
func (u *UDP) Clock() clock.Clock { return clock.Real{} }

// NewUDPWithOptions creates a UDP network with an initially empty
// directory. Its wire-level instruments — wire_bytes_in/out,
// wire_datagrams_in/out, wire_write_errors, wire_decode_errors,
// wire_oversize_dropped, wire_batches_in/out, wire_envelopes_in/out, the
// wire_envelopes_per_batch histogram, wire_call_timeouts and
// wire_late_replies — are registered in opts.Metrics. A process that runs
// one server per network (lsd, the paper's deployment shape) passes the
// server's registry so the counters ride along in diagnostic snapshots. A
// nil registry gets a private one, retrievable via Metrics.
func NewUDPWithOptions(opts UDPOptions) *UDP {
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	u := &UDP{
		opts:         opts,
		dir:          make(map[msg.NodeID]*net.UDPAddr),
		nodes:        make(map[msg.NodeID]*udpNode),
		met:          reg,
		bytesIn:      reg.Counter("wire_bytes_in"),
		bytesOut:     reg.Counter("wire_bytes_out"),
		datagramsIn:  reg.Counter("wire_datagrams_in"),
		datagramsOut: reg.Counter("wire_datagrams_out"),
		writeErrors:  reg.Counter("wire_write_errors"),
		decodeErrors: reg.Counter("wire_decode_errors"),
		oversize:     reg.Counter("wire_oversize_dropped"),
		batchesIn:    reg.Counter("wire_batches_in"),
		batchesOut:   reg.Counter("wire_batches_out"),
		envelopesIn:  reg.Counter("wire_envelopes_in"),
		envelopesOut: reg.Counter("wire_envelopes_out"),
		envsPerBatch: reg.Histogram("wire_envelopes_per_batch"),
		callTimeouts: reg.Counter("wire_call_timeouts"),
		lateReplies:  reg.Counter("wire_late_replies"),
		lossInjected: reg.Counter("wire_loss_injected"),
		retries:      reg.Counter("wire_retries"),
	}
	u.recvBufs.New = func() any {
		b := make([]byte, MaxDatagram)
		return &b
	}
	return u
}

// Metrics returns the registry holding the network's wire-level counters.
func (u *UDP) Metrics() *metrics.Registry { return u.met }

// SetLoss injects receive loss: each incoming datagram is dropped as l
// decides, after the datagram counters but before decoding — as if the
// kernel had lost it; nil removes it. All of the network's read loops draw
// from the one l. Fault-injection soaks use it to exercise the tracker's
// timeout path against a real socket.
func (u *UDP) SetLoss(l *Loss) { u.loss.Store(l) }

// dropIncoming draws one injected-loss decision; with no loss installed it
// takes no lock.
func (u *UDP) dropIncoming() bool {
	l := u.loss.Load()
	return l != nil && l.Drop()
}

// AddRoute maps a node id to a UDP address ("host:port"). Servers started
// by cmd/lsd publish their addresses through the deployment config.
func (u *UDP) AddRoute(id msg.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: resolving %s: %w", addr, err)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	u.dir[id] = ua
	return nil
}

// Route returns the address registered for id.
func (u *UDP) Route(id msg.NodeID) (string, bool) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	ua, ok := u.dir[id]
	if !ok {
		return "", false
	}
	return ua.String(), true
}

// newNode builds a node with its tracker and batcher.
func (u *UDP) newNode(id msg.NodeID, conn *net.UDPConn, h Handler) *udpNode {
	// Best effort, see socketBuffer: a smaller buffer only loses datagrams
	// sooner, which the call path survives like any other loss.
	_ = conn.SetReadBuffer(socketBuffer)
	_ = conn.SetWriteBuffer(socketBuffer)
	nd := &udpNode{id: id, net: u, conn: conn, handler: h}
	nd.health = newHealth(breakerConfig{
		clk:       u.Clock(),
		threshold: u.opts.BreakerThreshold,
		cooldown:  u.opts.BreakerCooldown,
		owner:     id,
		metrics:   u.met,
	})
	tc := trackerConfig{
		clk:         u.Clock(),
		maxInFlight: u.opts.MaxInFlight,
		sweepEvery:  u.opts.SweepInterval,
		onTimeout:   u.callTimeouts.Inc,
		onLate:      u.lateReplies.Inc,
	}
	if nd.health != nil {
		tc.onOutcome = nd.health.outcome
	}
	nd.calls = newCalls(tc)
	nd.batch = newBatcher(nd, max(u.opts.BatchMax, 1))
	return nd
}

// Attach implements Network, binding a fresh socket on 127.0.0.1. The
// chosen address is added to the directory automatically.
func (u *UDP) Attach(id msg.NodeID, h Handler) (Node, error) {
	return u.AttachAddr(id, "127.0.0.1:0", h)
}

// AttachAuto binds a socket on an ephemeral port of host and attaches the
// node under its own address as node id ("127.0.0.1:54321"). Clients of a
// UDP deployment attach this way: every server can then reach them via the
// address-fallback routing in write without any directory distribution.
func (u *UDP) AttachAuto(host string, h Handler) (Node, error) {
	la, err := net.ResolveUDPAddr("udp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, fmt.Errorf("transport: resolving %s: %w", host, err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("transport: binding %s: %w", host, err)
	}
	id := msg.NodeID(conn.LocalAddr().String())
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		conn.Close()
		return nil, ErrClosed
	}
	if _, ok := u.nodes[id]; ok {
		conn.Close()
		return nil, ErrDuplicateID
	}
	node := u.newNode(id, conn, h)
	u.nodes[id] = node
	u.dir[id] = conn.LocalAddr().(*net.UDPAddr)
	u.wg.Add(1)
	go node.readLoop(&u.wg)
	return node, nil
}

// AttachAddr binds the node's socket to a specific address.
func (u *UDP) AttachAddr(id msg.NodeID, bind string, h Handler) (Node, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return nil, ErrClosed
	}
	if _, ok := u.nodes[id]; ok {
		return nil, ErrDuplicateID
	}
	la, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: resolving bind %s: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("transport: binding %s: %w", bind, err)
	}
	node := u.newNode(id, conn, h)
	u.nodes[id] = node
	u.dir[id] = conn.LocalAddr().(*net.UDPAddr)
	u.wg.Add(1)
	go node.readLoop(&u.wg)
	return node, nil
}

// Close implements Network.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	nodes := make([]*udpNode, 0, len(u.nodes))
	for _, n := range u.nodes {
		nodes = append(nodes, n)
	}
	u.mu.Unlock()
	for _, n := range nodes {
		n.calls.close()
		n.batch.closeFlush()
		n.conn.Close()
	}
	u.wg.Wait()
	return nil
}

type udpNode struct {
	id      msg.NodeID
	net     *UDP
	conn    *net.UDPConn
	handler Handler
	calls   *calls
	health  *health
	batch   *batcher

	handlerWG sync.WaitGroup
}

var _ Node = (*udpNode)(nil)

// ID implements Node.
func (nd *udpNode) ID() msg.NodeID { return nd.id }

// readLoop receives datagrams until the socket closes. Each datagram is
// read into a pooled buffer that goes straight through the batch-aware
// decode and back to the pool — the decoded envelopes own copies of
// everything they need, so no per-packet allocation or copy survives the
// loop body.
func (nd *udpNode) readLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		bp := nd.net.recvBufs.Get().(*[]byte)
		buf := *bp
		// ReadFromUDPAddrPort returns the source as a value type, so the
		// steady-state loop body is allocation-free; ReadFromUDP would
		// heap-allocate a *net.UDPAddr per packet.
		n, src, err := nd.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			nd.net.recvBufs.Put(bp)
			if errors.Is(err, net.ErrClosed) {
				nd.handlerWG.Wait()
				return
			}
			continue
		}
		nd.net.datagramsIn.Inc()
		nd.net.bytesIn.Add(int64(n))
		if nd.net.dropIncoming() {
			nd.net.recvBufs.Put(bp)
			nd.net.lossInjected.Inc()
			continue
		}
		// The single-envelope fast path avoids DecodeBatch's slice
		// allocation; batch frames take the slice once per datagram, not
		// per envelope.
		if wire.IsBatch(buf[:n]) {
			envs, derr := wire.DecodeBatch(buf[:n])
			nd.net.recvBufs.Put(bp)
			if derr != nil {
				nd.net.decodeErrors.Inc()
				continue
			}
			nd.net.batchesIn.Inc()
			nd.net.envelopesIn.Add(int64(len(envs)))
			for _, env := range envs {
				nd.process(env, src)
			}
			continue
		}
		env, derr := wire.Decode(buf[:n])
		nd.net.recvBufs.Put(bp)
		if derr != nil {
			// Malformed datagram: drop, as UDP services must, but
			// leave a trace for the operator.
			nd.net.decodeErrors.Inc()
			continue
		}
		nd.net.envelopesIn.Inc()
		nd.process(env, src)
	}
}

// process routes one received envelope. A reply is resolved through the
// tracker right here on the read loop (resolving never blocks); a request
// is handled on the handler executor, concurrently with the read loop and
// with every other envelope — of the same datagram too — in no particular
// order, so a handler may block in nested calls.
func (nd *udpNode) process(env msg.Envelope, src netip.AddrPort) {
	// Learn the sender's address so replies and later messages to
	// this node need no static directory entry. Known senders — the
	// steady state — take only the read lock; the exclusive lock and
	// the *net.UDPAddr conversion are paid once per new peer.
	if env.From != "" && src.IsValid() {
		nd.net.mu.RLock()
		_, known := nd.net.dir[env.From]
		nd.net.mu.RUnlock()
		if !known {
			ua := net.UDPAddrFromAddrPort(src)
			nd.net.mu.Lock()
			if _, known := nd.net.dir[env.From]; !known {
				nd.net.dir[env.From] = ua
			}
			nd.net.mu.Unlock()
		}
	}
	if env.Reply {
		nd.calls.deliver(env.CorrID, env.Msg)
		return
	}
	if nd.handler == nil {
		return
	}
	nd.handlerWG.Add(1)
	handlers.run(func() {
		defer nd.handlerWG.Done()
		resp, herr := nd.handler(context.Background(), env.From, env.Msg)
		if env.CorrID == 0 {
			return
		}
		var payload msg.Message
		switch {
		case herr != nil:
			payload = msg.ErrorResFrom(herr)
		case resp != nil:
			payload = resp
		default:
			payload = msg.Ack{}
		}
		reply := msg.Envelope{From: nd.id, CorrID: env.CorrID, Reply: true, Msg: payload}
		// Best effort: UDP replies may be lost like any datagram.
		_ = nd.write(env.From, reply)
	})
}

// transmit sends one assembled datagram carrying count envelopes and
// records the wire counters. A failed write is counted in
// wire_write_errors and returned; the batcher passes it on only to a
// sender whose own envelope the datagram carried.
func (nd *udpNode) transmit(addr *net.UDPAddr, data []byte, count int) error {
	if _, err := nd.conn.WriteToUDP(data, addr); err != nil {
		nd.net.writeErrors.Inc()
		return err
	}
	nd.net.datagramsOut.Inc()
	nd.net.bytesOut.Add(int64(len(data)))
	if count >= 2 {
		nd.net.batchesOut.Inc()
	}
	nd.net.envsPerBatch.Observe(float64(count))
	return nil
}

// write encodes and transmits an envelope to the directory address of dst.
// Node ids that are not in the directory but parse as "host:port" are sent
// to that address directly: clients of a UDP deployment use their own
// socket address as node id, so servers can answer them without any
// directory entry (the paper's prototype likewise replies to the datagram
// source). Encoding appends into a pooled buffer; an envelope that would
// exceed MaxDatagram fails here, before the socket write, with the message
// type and encoded size. The encoded frame is handed to the coalescer,
// which sends it at once or with its destination's next batch.
func (nd *udpNode) write(dst msg.NodeID, env msg.Envelope) error {
	nd.net.mu.RLock()
	addr, ok := nd.net.dir[dst]
	nd.net.mu.RUnlock()
	if !ok {
		ua, err := net.ResolveUDPAddr("udp", string(dst))
		if err != nil || ua.Port == 0 {
			return ErrUnknownNode
		}
		nd.net.mu.Lock()
		nd.net.dir[dst] = ua
		nd.net.mu.Unlock()
		addr = ua
	}
	bp := wire.GetBuffer()
	data, err := wire.AppendEncode((*bp)[:0], env)
	if err != nil {
		wire.PutBuffer(bp)
		return err
	}
	*bp = data
	if len(data) > MaxDatagram {
		nd.net.oversize.Inc()
		tag, _ := msg.TagOf(env.Msg)
		wire.PutBuffer(bp)
		return fmt.Errorf("transport: %s envelope encodes to %d bytes, exceeding the %d-byte datagram limit", tag, len(data), MaxDatagram)
	}
	nd.net.envelopesOut.Inc()
	werr := nd.batch.add(dst, addr, data)
	wire.PutBuffer(bp)
	if werr != nil {
		return fmt.Errorf("transport: sending to %s: %w", dst, werr)
	}
	return nil
}

// Send implements Node. An open breaker toward the destination fails
// fast: one-way messages to a dark peer are pure loss anyway.
func (nd *udpNode) Send(to msg.NodeID, m msg.Message) error {
	if nd.health.state(to) == PeerOpen {
		return ErrBreakerOpen
	}
	return nd.write(to, msg.Envelope{From: nd.id, Msg: m})
}

// Call implements Node: CallAsync followed by Wait, the lockstep special
// case of the multiplexed path.
func (nd *udpNode) Call(ctx context.Context, to msg.NodeID, m msg.Message) (msg.Message, error) {
	p, err := nd.CallAsync(ctx, to, m)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx)
}

// CallAsync implements Node.
func (nd *udpNode) CallAsync(ctx context.Context, to msg.NodeID, m msg.Message) (*PendingCall, error) {
	if err := nd.health.allow(to); err != nil {
		return nil, err
	}
	deadline := callDeadline(ctx, nd.Clock(), nd.net.opts.CallTimeout)
	id, ch, err := nd.calls.register(ctx, to, deadline)
	if err != nil {
		nd.health.abortProbe(to)
		return nil, err
	}
	if err := nd.write(to, msg.Envelope{From: nd.id, CorrID: id, Msg: m}); err != nil {
		nd.calls.cancel(id)
		nd.health.abortProbe(to)
		return nil, err
	}
	return &PendingCall{c: nd.calls, id: id, ch: ch}, nil
}

// countRetry feeds the network's wire_retries counter (retryCounter).
func (nd *udpNode) countRetry() { nd.net.retries.Inc() }

// PeerState returns this node's breaker state toward to (PeerClosed when
// breakers are disabled).
func (nd *udpNode) PeerState(to msg.NodeID) PeerState { return nd.health.state(to) }

// PendingCalls implements Node.
func (nd *udpNode) PendingCalls() int { return nd.calls.pending() }

// Clock implements Node.
func (nd *udpNode) Clock() clock.Clock { return nd.net.Clock() }

// Close implements Node.
func (nd *udpNode) Close() error {
	nd.net.mu.Lock()
	delete(nd.net.nodes, nd.id)
	nd.net.mu.Unlock()
	nd.calls.close()
	nd.batch.closeFlush()
	return nd.conn.Close()
}
