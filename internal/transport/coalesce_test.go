package transport

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// TestBatchedCallsDoNotLinger is the property the self-clocked coalescer
// exists for: a blocking call over a batching network pays no timer. Under
// the linger rule each of these round trips waited out two 1 ms lingers
// (request and reply, each alone in its batch), 400 ms for the lot at best;
// a quarter of that leaves a 4x margin over what the calls really cost.
func TestBatchedCallsDoNotLinger(t *testing.T) {
	const calls = 200
	t.Run("udp", func(t *testing.T) {
		nw := NewUDPWithOptions(UDPOptions{BatchMax: 16})
		defer nw.Close()
		if _, err := nw.Attach("server", valueEchoHandler); err != nil {
			t.Fatal(err)
		}
		cli, err := nw.Attach("client", nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		start := time.Now()
		for i := 0; i < calls; i++ {
			resp, err := cli.Call(ctx, "server", msg.ChangeAccReq{OID: "o", DesAcc: float64(i)})
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			if res, ok := resp.(msg.ChangeAccRes); !ok || res.OfferedAcc != float64(i) {
				t.Fatalf("call %d resolved with %#v", i, resp)
			}
		}
		if took, limit := time.Since(start), calls*2*time.Millisecond/4; took > limit {
			t.Errorf("%d sequential calls took %v, want under %v: something on the path waits for a timer", calls, took, limit)
		}
	})
}

// TestCoalescerExactlyOnceUnderLoad floods three destinations from eight
// goroutines and checks the coalescer's arithmetic: every envelope handled
// exactly once, envelopes counted exactly, fewer datagrams than envelopes,
// no batch above the count cap. Every few hundred envelopes a sender slips
// in one of 40 KiB, two of which do not fit a datagram: were a batch ever
// assembled past MaxDatagram the kernel would refuse it and its envelopes
// would be missing. Each sender stays at most a window ahead of the
// handlers, so the kernel's socket queue cannot overflow whatever the
// scheduler does.
func TestCoalescerExactlyOnceUnderLoad(t *testing.T) {
	const (
		senders   = 8
		perSender = 10_000
		total     = senders * perSender
		batchMax  = 16
		window    = 256
		bigEvery  = 500
	)
	dests := []msg.NodeID{"d0", "d1", "d2"}
	reg := metrics.NewRegistry()
	nw := NewUDPWithOptions(UDPOptions{Metrics: reg, BatchMax: batchMax})
	defer nw.Close()

	handled := make([]atomic.Uint32, total)
	var windows [senders]chan struct{}
	for i := range windows {
		windows[i] = make(chan struct{}, window) // a sender's lead over the handlers
	}
	var done sync.WaitGroup
	done.Add(total)
	sink := func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
		var id int
		switch v := m.(type) {
		case msg.NotifyAvailAcc:
			id = int(v.OfferedAcc)
		case msg.RangeQueryRes:
			id = v.Servers
		default:
			t.Errorf("unexpected %T", m)
			return nil, nil
		}
		if handled[id].Add(1) == 1 {
			done.Done()
		}
		<-windows[id/perSender]
		return nil, nil
	}
	for _, d := range dests {
		if _, err := nw.Attach(d, sink); err != nil {
			t.Fatal(err)
		}
	}
	src, err := nw.Attach("src", nil)
	if err != nil {
		t.Fatal(err)
	}
	big := bigResult()

	var sending sync.WaitGroup
	for s := 0; s < senders; s++ {
		sending.Add(1)
		go func(s int) {
			defer sending.Done()
			for i := 0; i < perSender; i++ {
				id := s*perSender + i
				var m msg.Message = msg.NotifyAvailAcc{OID: "o", OfferedAcc: float64(id)}
				if i%bigEvery == bigEvery-1 {
					m = msg.RangeQueryRes{Objs: big, Servers: id}
				}
				windows[s] <- struct{}{}
				if err := src.Send(dests[id%len(dests)], m); err != nil {
					t.Errorf("send %d: %v", id, err)
					return
				}
			}
		}(s)
	}
	sending.Wait()
	arrived := make(chan struct{})
	go func() { done.Wait(); close(arrived) }()
	select {
	case <-arrived:
	case <-time.After(30 * time.Second):
		missing := 0
		for i := range handled {
			if handled[i].Load() == 0 {
				missing++
			}
		}
		t.Fatalf("%d of %d envelopes never handled", missing, total)
	}
	for i := range handled {
		if n := handled[i].Load(); n != 1 {
			t.Fatalf("envelope %d handled %d times", i, n)
		}
	}
	envs, dgs := reg.Counter("wire_envelopes_out").Value(), reg.Counter("wire_datagrams_out").Value()
	if envs != total {
		t.Errorf("wire_envelopes_out = %d, want exactly %d", envs, total)
	}
	if dgs >= envs {
		t.Errorf("wire_datagrams_out = %d for %d envelopes: nothing coalesced under load", dgs, envs)
	}
	if h := reg.Histogram("wire_envelopes_per_batch"); h.Max() > batchMax {
		t.Errorf("a datagram carried %.0f envelopes, cap is %d", h.Max(), batchMax)
	}
	t.Logf("%d envelopes in %d datagrams (%.2f per datagram)", envs, dgs, float64(envs)/float64(dgs))
}

// TestBatcherClose pins what Close promises of the coalescer: batches still
// open are delivered, the flusher goroutine is gone when Close returns, and
// an envelope added afterwards goes straight to the socket.
func TestBatcherClose(t *testing.T) {
	// The peers live on a network of their own, which outlives the
	// batching one.
	regPeers := metrics.NewRegistry()
	peers := NewUDPWithOptions(UDPOptions{Metrics: regPeers})
	defer peers.Close()
	arrivals := regPeers.Counter("wire_envelopes_in")
	for _, id := range []msg.NodeID{"p0", "p1"} {
		if _, err := peers.Attach(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()

	reg := metrics.NewRegistry()
	nw := NewUDPWithOptions(UDPOptions{Metrics: reg, BatchMax: 16})
	for _, id := range []msg.NodeID{"p0", "p1"} {
		addr, _ := peers.Route(id)
		if err := nw.AddRoute(id, addr); err != nil {
			t.Fatal(err)
		}
	}
	src, err := nw.Attach("src", nil)
	if err != nil {
		t.Fatal(err)
	}
	b := src.(*udpNode).batch
	datagrams := reg.Counter("wire_datagrams_out")

	// With the flusher out of the way these provably stay open.
	b.fl.stop()
	for i := 0; i < 8; i++ {
		if err := src.Send(msg.NodeID(fmt.Sprintf("p%d", i%2)), msg.NotifyAvailAcc{OID: "o"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := datagrams.Value(); got != 0 {
		t.Fatalf("%d datagrams left with nothing to flush them", got)
	}
	b.closeFlush()
	if got := datagrams.Value(); got != 2 {
		t.Errorf("closing sent %d datagrams, want one per destination", got)
	}
	waitCounter(t, arrivals, 8, "envelopes delivered by the closing flush")

	// Closed: no coalescing, no flusher needed.
	for i := 0; i < 3; i++ {
		if err := src.Send("p0", msg.NotifyAvailAcc{OID: "o"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := datagrams.Value(); got != 5 {
		t.Errorf("%d datagrams after three sends on a closed batcher, want 5", got)
	}
	waitCounter(t, arrivals, 11, "envelopes sent after the batcher closed")

	// A node with a live flusher: Close returns only once it has exited.
	live, err := nw.Attach("live", nil)
	if err != nil {
		t.Fatal(err)
	}
	fl := live.(*udpNode).batch.fl
	for i := 0; i < 5; i++ {
		if err := live.Send("p1", msg.NotifyAvailAcc{OID: "o"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fl.done:
	default:
		t.Error("flusher still running after Close")
	}
	waitCounter(t, arrivals, 16, "envelopes sent just before Close")
	// Read loops and flushers are waited for, and nothing here started a
	// sweeper or a handler. The process-wide count also moves with
	// goroutines this test did not start (an earlier test's
	// time.AfterFunc firing, say), so it is polled until it settles; a
	// goroutine this network leaked never leaves.
	eventually(5*time.Second, func() bool { return runtime.NumGoroutine() <= before })
	if after := runtime.NumGoroutine(); after > before {
		stacks := make([]byte, 1<<20)
		t.Errorf("%d goroutines after Close, %d before the network existed; all goroutines:\n%s", after, before, stacks[:runtime.Stack(stacks, true)])
	}
}

// BenchmarkUDPCallBatched is one blocking round trip over loopback UDP with
// batching on — the lockstep case, where the coalescer has nothing to
// coalesce and must cost next to nothing.
func BenchmarkUDPCallBatched(b *testing.B) {
	benchCall(b, NewUDPWithOptions(UDPOptions{BatchMax: 16}))
}
