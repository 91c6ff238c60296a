// Package tracenet is a tracing decorator over transport.Network. Attach
// wraps every node's handler (one span per handled message, keyed by node
// and message tag) and the returned Node wraps Send, Call and CallAsync
// (one span per outgoing message), so a benchmark records a span at every
// boundary between client, transport and server without touching those
// packages.
//
// Spans are attributed to client ops by time: the traced pass runs one
// closed-loop client that opens an op (BeginOp), waits for its answer and
// then for the network to fall quiet (Quiesce) before the next op starts,
// so every span started in between belongs to that op — asynchronous tails
// such as path repair after a handover included.
package tracenet

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/internal/msg"
	"locsvc/internal/transport"
)

// Kind says where a span was recorded.
type Kind uint8

// Span kinds.
const (
	// KindOp is one client operation, recorded by the benchmark itself.
	KindOp Kind = iota
	// KindHandler is one message handled by a node.
	KindHandler
	// KindCall is one blocking Call, request to reply.
	KindCall
	// KindSend is one one-way Send; only its start is meaningful.
	KindSend
	// KindAsync is one CallAsync; the reply is consumed by the caller, so
	// only its start is meaningful.
	KindAsync
)

var kindNames = [...]string{"op", "handler", "call", "send", "async"}

// Span is one traced interval. Times are nanoseconds since the Net was
// created.
type Span struct {
	// Op is the client op that was open when the span started.
	Op   uint32
	Kind Kind
	// Class is the op class of a KindOp span (the benchmark's own code).
	Class uint8
	Tag   msg.Tag
	// Node is where the span ran; Peer is the sender of a handled message
	// or the destination of an outgoing one.
	Node, Peer msg.NodeID
	Start, End int64
}

// Net decorates a transport.Network with span recording. Recording is off
// until Enable, so the untraced phases of a run pay one atomic load per
// message.
type Net struct {
	inner transport.Network
	base  time.Time
	on    atomic.Bool
	op    atomic.Uint32

	// pending counts messages sent but not yet picked up by a handler,
	// active the handlers currently running; both zero means quiet.
	pending, active atomic.Int64

	mu      sync.Mutex
	spans   []Span
	max     int
	dropped int
	sample  []msg.Envelope
}

var _ transport.Network = (*Net)(nil)

// sampleCap bounds the envelope sample kept for the wire replay.
const sampleCap = 4096

// Wrap decorates inner; at most maxSpans spans are kept.
func Wrap(inner transport.Network, maxSpans int) *Net {
	return &Net{inner: inner, base: time.Now(), max: maxSpans, spans: make([]Span, 0, 1<<16)}
}

func (n *Net) now() int64 { return int64(time.Since(n.base)) }

// Enable starts recording. Call it only while no message is in flight.
func (n *Net) Enable() {
	n.pending.Store(0)
	n.active.Store(0)
	n.on.Store(true)
}

// Disable stops recording.
func (n *Net) Disable() { n.on.Store(false) }

// BeginOp opens the next client op and returns its id and start time.
func (n *Net) BeginOp() (uint32, int64) { return n.op.Add(1), n.now() }

// EndOp records the client op's span.
func (n *Net) EndOp(id uint32, class uint8, client msg.NodeID, start int64) {
	n.record(Span{Op: id, Kind: KindOp, Class: class, Node: client, Start: start, End: n.now()})
}

// Quiesce waits until no traced message is in flight and no handler runs,
// or until the timeout passes; it reports whether the network fell quiet.
func (n *Net) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for n.pending.Load() > 0 || n.active.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

func (n *Net) record(s Span) {
	n.mu.Lock()
	if len(n.spans) < n.max {
		n.spans = append(n.spans, s)
	} else {
		n.dropped++
	}
	n.mu.Unlock()
}

func (n *Net) keep(env msg.Envelope) {
	n.mu.Lock()
	if len(n.sample) < sampleCap {
		n.sample = append(n.sample, env)
	}
	n.mu.Unlock()
}

// Spans returns the recorded spans and how many were dropped at the cap.
func (n *Net) Spans() ([]Span, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.spans, n.dropped
}

// Sample returns the first envelopes seen while recording: the workload's
// own message mix, for the wire replay.
func (n *Net) Sample() []msg.Envelope {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sample
}

// Attach implements transport.Network.
func (n *Net) Attach(id msg.NodeID, h transport.Handler) (transport.Node, error) {
	wrapped := func(ctx context.Context, from msg.NodeID, m msg.Message) (msg.Message, error) {
		if !n.on.Load() {
			return h(ctx, from, m)
		}
		n.active.Add(1)
		n.pending.Add(-1)
		tag, _ := msg.TagOf(m)
		s := Span{Op: n.op.Load(), Kind: KindHandler, Tag: tag, Node: id, Peer: from, Start: n.now()}
		resp, err := h(ctx, from, m)
		s.End = n.now()
		n.record(s)
		if resp != nil {
			n.keep(msg.Envelope{From: id, CorrID: 1, Reply: true, Msg: resp})
		}
		n.active.Add(-1)
		return resp, err
	}
	inner, err := n.inner.Attach(id, wrapped)
	if err != nil {
		return nil, err
	}
	return &node{Node: inner, net: n}, nil
}

// Close implements transport.Network.
func (n *Net) Close() error { return n.inner.Close() }

// node decorates one endpoint's outgoing side; ID, PendingCalls and Close
// pass through.
type node struct {
	transport.Node
	net *Net
}

func (nd *node) begin(kind Kind, to msg.NodeID, m msg.Message) Span {
	n := nd.net
	tag, _ := msg.TagOf(m)
	n.pending.Add(1)
	corr := uint64(0)
	if kind != KindSend {
		corr = 1
	}
	n.keep(msg.Envelope{From: nd.ID(), CorrID: corr, Msg: m})
	return Span{Op: n.op.Load(), Kind: kind, Tag: tag, Node: nd.ID(), Peer: to, Start: n.now()}
}

func (nd *node) Send(to msg.NodeID, m msg.Message) error {
	if !nd.net.on.Load() {
		return nd.Node.Send(to, m)
	}
	s := nd.begin(KindSend, to, m)
	err := nd.Node.Send(to, m)
	if err != nil {
		nd.net.pending.Add(-1)
	}
	s.End = nd.net.now()
	nd.net.record(s)
	return err
}

func (nd *node) Call(ctx context.Context, to msg.NodeID, m msg.Message) (msg.Message, error) {
	if !nd.net.on.Load() {
		return nd.Node.Call(ctx, to, m)
	}
	s := nd.begin(KindCall, to, m)
	resp, err := nd.Node.Call(ctx, to, m)
	if err != nil && !nd.net.handled(s) {
		// The request never reached a handler (unknown node, breaker).
		nd.net.pending.Add(-1)
	}
	s.End = nd.net.now()
	nd.net.record(s)
	return resp, err
}

func (nd *node) CallAsync(ctx context.Context, to msg.NodeID, m msg.Message) (*transport.PendingCall, error) {
	if !nd.net.on.Load() {
		return nd.Node.CallAsync(ctx, to, m)
	}
	s := nd.begin(KindAsync, to, m)
	p, err := nd.Node.CallAsync(ctx, to, m)
	if err != nil {
		nd.net.pending.Add(-1)
	}
	s.End = nd.net.now()
	nd.net.record(s)
	return p, err
}

// handled reports whether a handler span answering call c was recorded: a
// failed Call whose request was still delivered must not be uncounted.
func (n *Net) handled(c Span) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := len(n.spans) - 1; i >= 0 && n.spans[i].Start >= c.Start; i-- {
		if s := n.spans[i]; s.Kind == KindHandler && s.Node == c.Peer && s.Peer == c.Node && s.Tag == c.Tag {
			return true
		}
	}
	return false
}

// WriteJSONL writes the first max spans to path, one JSON object per line.
func WriteJSONL(path string, spans []Span, max int) error {
	if len(spans) > max {
		spans = spans[:max]
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	type line struct {
		Op    uint32 `json:"op"`
		Kind  string `json:"kind"`
		Class uint8  `json:"class,omitempty"`
		Tag   string `json:"tag,omitempty"`
		Node  string `json:"node"`
		Peer  string `json:"peer,omitempty"`
		Start int64  `json:"start_ns"`
		End   int64  `json:"end_ns"`
	}
	for _, s := range spans {
		l := line{Op: s.Op, Kind: kindNames[s.Kind], Class: s.Class, Node: string(s.Node), Peer: string(s.Peer), Start: s.Start, End: s.End}
		if s.Kind != KindOp {
			l.Tag = s.Tag.String()
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
