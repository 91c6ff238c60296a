package transport

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// waitParkedAtMost polls until the executor's idle workers are within
// their bound: a worker decides to park or retire only after its handler
// returned, which is after the caller saw the reply.
func waitParkedAtMost(t *testing.T, limit int) {
	t.Helper()
	parked := func() int {
		handlers.mu.Lock()
		defer handlers.mu.Unlock()
		return len(handlers.parked)
	}
	if !eventually(2*time.Second, func() bool { return parked() <= limit }) {
		t.Fatalf("%d workers parked, want at most %d", parked(), limit)
	}
}

// TestExecutorNestedCallChain is the liveness property a bounded pool
// cannot have: a chain of handlers, each blocked in a Call to the next and
// longer than the parked-worker bound, completes — every link holds a
// worker until the last one answers, so "no idle worker" has to start one.
func TestExecutorNestedCallChain(t *testing.T) {
	const links = maxParkedWorkers + 40
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			nodes := make([]Node, links)
			for i := 0; i < links; i++ {
				i := i
				nd, err := nw.Attach(msg.NodeID(fmt.Sprintf("n%03d", i)), func(ctx context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
					if i == links-1 {
						return msg.HandoverRes{NewAgent: "end"}, nil
					}
					resp, err := nodes[i].Call(ctx, msg.NodeID(fmt.Sprintf("n%03d", i+1)), m)
					if err != nil {
						return nil, err
					}
					hr := resp.(msg.HandoverRes)
					hr.Hops++
					return hr, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				nodes[i] = nd
			}
			head, err := nw.Attach("head", nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			resp, err := head.Call(ctx, "n000", msg.HandoverReq{})
			if err != nil {
				t.Fatalf("chain of %d nested calls: %v", links, err)
			}
			if hr, ok := resp.(msg.HandoverRes); !ok || hr.NewAgent != "end" || hr.Hops != links-1 {
				t.Fatalf("chain answered %#v, want %d hops to \"end\"", resp, links-1)
			}
			waitParkedAtMost(t, maxParkedWorkers)
		})
	}
}

// TestExecutorBurstRetiresSurplusAndCloseDrains sends a 10 000-envelope
// burst in waves wider than the parked-worker bound, each wave's handlers
// held at a barrier so that many workers really exist at once; afterwards
// the surplus must have retired. Then Close has to wait for a handler that
// is still running.
func TestExecutorBurstRetiresSurplusAndCloseDrains(t *testing.T) {
	const (
		burst = 10000
		// wave stays under what a default loopback socket buffer holds
		// while the read loop is descheduled.
		wave = maxParkedWorkers + 72
	)
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			var (
				arrived  atomic.Int64
				barrier  atomic.Pointer[chan struct{}]
				started  = make(chan struct{})
				release  = make(chan struct{})
				finished atomic.Bool
			)
			if _, err := nw.Attach("srv", func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
				if _, slow := m.(msg.DiagReq); slow {
					close(started)
					<-release
					// A slow handler: Close must wait for it to return.
					time.Sleep(20 * time.Millisecond)
					finished.Store(true)
					return nil, nil
				}
				gate := *barrier.Load()
				if arrived.Add(1)%wave == 0 {
					close(gate)
				}
				<-gate
				return msg.Ack{}, nil
			}); err != nil {
				t.Fatal(err)
			}
			cli, err := nw.Attach("cli", nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for sent := 0; sent < burst; sent += wave {
				gate := make(chan struct{})
				barrier.Store(&gate)
				pend := make([]*PendingCall, wave)
				for i := range pend {
					p, err := cli.CallAsync(ctx, "srv", msg.UpdateReq{})
					if err != nil {
						t.Fatal(err)
					}
					pend[i] = p
				}
				for _, p := range pend {
					if _, err := p.Wait(ctx); err != nil {
						t.Fatalf("burst call: %v", err)
					}
				}
			}
			waitParkedAtMost(t, maxParkedWorkers)

			if err := cli.Send("srv", msg.DiagReq{}); err != nil {
				t.Fatal(err)
			}
			<-started
			go func() {
				// Releases the slow handler only once Close is waiting on it.
				time.Sleep(50 * time.Millisecond)
				close(release)
			}()
			if err := nw.Close(); err != nil {
				t.Fatal(err)
			}
			if !finished.Load() {
				t.Fatal("Close returned while a handler was still running")
			}
		})
	}
}

// TestInlineLateReplyCountedNotCrossed covers the reply path that no longer
// has a goroutine of its own: a reply produced after its call was cancelled
// or swept is resolved — on the replying handler's goroutine — as late,
// counted, and handed to nobody, while another call of the same node is
// pending.
func TestInlineLateReplyCountedNotCrossed(t *testing.T) {
	reg := metrics.NewRegistry()
	net := NewInproc(InprocOptions{Metrics: reg, SweepInterval: 5 * time.Millisecond})
	defer net.Close()
	gates := map[float64]chan struct{}{1: make(chan struct{}), 2: make(chan struct{}), 3: make(chan struct{})}
	if _, err := net.Attach("srv", func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
		req := m.(msg.ChangeAccReq)
		<-gates[req.DesAcc]
		return msg.ChangeAccRes{OK: true, OfferedAcc: req.DesAcc}, nil
	}); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", nil)
	if err != nil {
		t.Fatal(err)
	}
	late := reg.Counter("wire_late_replies")

	// Call 1 is cancelled by its waiter, call 2 swept at its deadline.
	p1, err := cli.CallAsync(context.Background(), "srv", msg.ChangeAccReq{DesAcc: 1})
	if err != nil {
		t.Fatal(err)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p1.Wait(gone); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait = %v, want context.Canceled", err)
	}
	short, cancelShort := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelShort()
	p2, err := cli.CallAsync(short, "srv", msg.ChangeAccReq{DesAcc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Wait(context.Background()); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("swept call = %v, want the sweeper's timeout error frame", err)
	}
	if got := reg.Counter("wire_call_timeouts").Value(); got != 1 {
		t.Fatalf("wire_call_timeouts = %d, want 1", got)
	}

	// Call 3 is pending while both orphaned replies arrive.
	p3, err := cli.CallAsync(context.Background(), "srv", msg.ChangeAccReq{DesAcc: 3})
	if err != nil {
		t.Fatal(err)
	}
	close(gates[1])
	close(gates[2])
	waitCounter(t, late, 2, "wire_late_replies")
	select {
	case m := <-p3.ch:
		t.Fatalf("pending call resolved by an orphaned reply: %#v", m)
	default:
	}
	if got := cli.PendingCalls(); got != 1 {
		t.Fatalf("%d calls in flight, want only call 3", got)
	}
	close(gates[3])
	resp, err := p3.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := resp.(msg.ChangeAccRes); !ok || res.OfferedAcc != 3 {
		t.Fatalf("call 3 resolved with %#v, want its own echo", resp)
	}
	waitQuiesced(t, cli)
}

// TestStuckHandlerYieldsTimeoutFrame: a request whose handler never answers
// costs the caller its per-request deadline and an error frame, not a hang
// — and the workers those handlers hold do not keep a later request from
// being served.
func TestStuckHandlerYieldsTimeoutFrame(t *testing.T) {
	const stuck = 50
	nets := map[string]Network{
		"inproc": NewInproc(InprocOptions{CallTimeout: 40 * time.Millisecond, SweepInterval: 5 * time.Millisecond}),
		"udp":    NewUDPWithOptions(UDPOptions{CallTimeout: 40 * time.Millisecond, SweepInterval: 5 * time.Millisecond}),
	}
	for name, nw := range nets {
		t.Run(name, func(t *testing.T) {
			release := make(chan struct{})
			defer nw.Close()
			defer close(release)
			if _, err := nw.Attach("srv", func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
				if _, ok := m.(msg.DiagReq); ok {
					<-release
				}
				return msg.Ack{}, nil
			}); err != nil {
				t.Fatal(err)
			}
			cli, err := nw.Attach("cli", nil)
			if err != nil {
				t.Fatal(err)
			}
			pend := make([]*PendingCall, stuck)
			for i := range pend {
				if pend[i], err = cli.CallAsync(context.Background(), "srv", msg.DiagReq{}); err != nil {
					t.Fatal(err)
				}
			}
			start := time.Now()
			for _, p := range pend {
				_, werr := p.Wait(context.Background())
				if !errors.Is(werr, core.ErrTimeout) || !errors.Is(werr, context.DeadlineExceeded) {
					t.Fatalf("stuck call = %v, want a timeout error frame", werr)
				}
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("40 ms deadlines took %v to resolve", elapsed)
			}
			if _, err := cli.Call(context.Background(), "srv", msg.UpdateReq{}); err != nil {
				t.Fatalf("call behind %d stuck handlers: %v", stuck, err)
			}
			waitQuiesced(t, cli)
		})
	}
}

// benchSink keeps the compiler from discarding a benchmarked call.
var benchSink msg.Message

// BenchmarkInprocCall is one request/reply round trip on a fault-free
// in-process network: per-envelope time and allocations of dispatch,
// handler hand-off and inline reply resolution.
func BenchmarkInprocCall(b *testing.B) {
	benchCall(b, NewInproc(InprocOptions{}))
}

// benchCall times blocking round trips to a do-nothing handler over net,
// which it closes.
func benchCall(b *testing.B, net Network) {
	defer net.Close()
	if _, err := net.Attach("srv", func(context.Context, msg.NodeID, msg.Message) (msg.Message, error) {
		return msg.Ack{}, nil
	}); err != nil {
		b.Fatal(err)
	}
	cli, err := net.Attach("cli", nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var req msg.Message = msg.DiagReq{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cli.Call(ctx, "srv", req)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = resp
	}
}

// BenchmarkInprocSend is one one-way envelope, handled; the sender stays at
// most 64 envelopes ahead of the handlers.
func BenchmarkInprocSend(b *testing.B) {
	net := NewInproc(InprocOptions{})
	defer net.Close()
	window := make(chan struct{}, 64) // the sender's lead over the handlers
	if _, err := net.Attach("srv", func(context.Context, msg.NodeID, msg.Message) (msg.Message, error) {
		<-window
		return nil, nil
	}); err != nil {
		b.Fatal(err)
	}
	cli, err := net.Attach("cli", nil)
	if err != nil {
		b.Fatal(err)
	}
	var m msg.Message = msg.DiagReq{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window <- struct{}{}
		if err := cli.Send("srv", m); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < cap(window); i++ {
		window <- struct{}{} // every handler has taken its token
	}
}

// TestPendingCallThen covers the three ways a continuation gets its
// resolution — from the replying handler, from the deadline sweeper, and at
// once when the call had resolved before Then — on both transports, and
// that no in-flight entry outlives it.
func TestPendingCallThen(t *testing.T) {
	nets := map[string]Network{
		"inproc": NewInproc(InprocOptions{SweepInterval: 5 * time.Millisecond}),
		"udp":    NewUDPWithOptions(UDPOptions{SweepInterval: 5 * time.Millisecond}),
	}
	for name, nw := range nets {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			gate := make(chan struct{})
			if _, err := nw.Attach("srv", func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
				if _, ok := m.(msg.DiagReq); ok {
					<-gate // never answers in time
				}
				return msg.Ack{}, nil
			}); err != nil {
				t.Fatal(err)
			}
			defer close(gate)
			cli, err := nw.Attach("cli", nil)
			if err != nil {
				t.Fatal(err)
			}
			got := make(chan msg.Message, 1)
			then := func(m msg.Message) { got <- m }
			resolution := func(what string) msg.Message {
				t.Helper()
				select {
				case m := <-got:
					return m
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: continuation never ran", what)
					return nil
				}
			}

			p, err := cli.CallAsync(context.Background(), "srv", msg.Ack{})
			if err != nil {
				t.Fatal(err)
			}
			p.Then(then)
			if m := resolution("reply"); msg.AsError(m) != nil {
				t.Fatalf("reply resolved with %#v, want the ack", m)
			}

			short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			p, err = cli.CallAsync(short, "srv", msg.DiagReq{})
			cancel() // the deadline is on the call; nothing waits on the context
			if err != nil {
				t.Fatal(err)
			}
			p.Then(then)
			if err := msg.AsError(resolution("sweep")); !errors.Is(err, core.ErrTimeout) {
				t.Fatalf("swept call resolved with %v, want the timeout error frame", err)
			}

			p, err = cli.CallAsync(context.Background(), "srv", msg.Ack{})
			if err != nil {
				t.Fatal(err)
			}
			waitQuiesced(t, cli) // resolved into the channel already
			p.Then(then)
			select {
			case m := <-got:
				if msg.AsError(m) != nil {
					t.Fatalf("resolved call handed %#v to its continuation, want the ack", m)
				}
			default:
				t.Fatal("Then on a resolved call did not run the continuation before returning")
			}
			waitQuiesced(t, cli)
		})
	}
}
