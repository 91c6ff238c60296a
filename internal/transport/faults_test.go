package transport

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// valueEchoHandler answers ChangeAccReq{DesAcc: x} with ChangeAccRes{OfferedAcc:
// x}: the reply carries its request's value, so correlation mistakes are
// visible as value mismatches, not just as errors.
func valueEchoHandler(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
	req, ok := m.(msg.ChangeAccReq)
	if !ok {
		return msg.Ack{}, nil
	}
	return msg.ChangeAccRes{OK: true, OfferedAcc: req.DesAcc}, nil
}

// eventually polls cond until it holds or within passes, and reports
// whether it held. It waits for what a test cannot be signalled about: a
// socket's read loop or a worker finishing after the caller already has
// its answer. The polling interval is this package's one sleep.
func eventually(within time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// waitQuiesced polls until the node's in-flight table is empty, failing
// the test after two seconds — the leak check of the tests whose last
// resolution may still be on its way.
func waitQuiesced(t *testing.T, nd Node) {
	t.Helper()
	if !eventually(2*time.Second, func() bool { return nd.PendingCalls() == 0 }) {
		t.Fatalf("in-flight table not empty at quiesce: %d entries leaked", nd.PendingCalls())
	}
}

// TestLateReplyAfterTimeoutDropped pins the tracker's central safety
// property: a reply that arrives after its call timed out is dropped, not
// crossed onto the next call. The fault plan delays the first call's reply
// past the deadline; the second call must receive its own echoed value, and
// the late reply, released by advancing the clock, is counted and dropped.
func TestLateReplyAfterTimeoutDropped(t *testing.T) {
	var delayed atomic.Bool
	clk := clock.NewManual(time.Unix(1000, 0))
	reg := metrics.NewRegistry()
	net := NewInproc(InprocOptions{
		SweepInterval: 5 * time.Millisecond,
		Clock:         clk,
		Metrics:       reg,
		FaultPlan: func(_, _ msg.NodeID, env msg.Envelope) Fault {
			if env.Reply && env.CorrID == 1 && delayed.CompareAndSwap(false, true) {
				return Fault{Delay: 150 * time.Millisecond}
			}
			return Fault{}
		},
	})
	defer net.Close()
	if _, err := net.Attach("srv", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}

	ctx1, cancel1 := clk.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel1()
	p, err := cli.CallAsync(ctx1, "srv", msg.ChangeAccReq{OID: "o", DesAcc: 111})
	if err != nil {
		t.Fatal(err)
	}
	clk.BlockUntil(3) // the sweeper, ctx1's deadline and the held reply
	clk.Advance(30 * time.Millisecond)
	if _, err = p.Wait(ctx1); err == nil {
		t.Fatal("delayed-reply call succeeded, want timeout")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout error = %v, want DeadlineExceeded in chain", err)
	}

	// The late reply (CorrID 1) is still held. The next call must get its
	// own reply, id-exact.
	resp, err := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 222})
	if err != nil {
		t.Fatalf("second call: %v", err)
	}
	res, ok := resp.(msg.ChangeAccRes)
	if !ok || res.OfferedAcc != 222 {
		t.Fatalf("second call got %#v, want its own echo 222 (late reply crossed?)", resp)
	}

	// Release the late reply: it lands within the Advance, and must be
	// dropped without a trace in the in-flight table.
	clk.Advance(120 * time.Millisecond)
	if got := reg.Counter("wire_late_replies").Value(); got != 1 {
		t.Fatalf("wire_late_replies = %d, want 1", got)
	}
	assertQuiesced(t, cli)
}

// TestDuplicateRepliesResolveOnce pins exactly-once resolution: a
// duplicated reply resolves its call a single time, and the extra copies
// are dropped as late rather than resolving a neighbor. Close drains the
// deliveries, so every copy has landed when it returns.
func TestDuplicateRepliesResolveOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	net := NewInproc(InprocOptions{
		Metrics: reg,
		FaultPlan: func(_, _ msg.NodeID, env msg.Envelope) Fault {
			if env.Reply {
				return Fault{Duplicate: 2} // every reply arrives three times
			}
			return Fault{}
		},
	})
	defer net.Close()
	if _, err := net.Attach("srv", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 16
	for i := 1; i <= calls; i++ {
		resp, err := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: float64(i)})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if res, ok := resp.(msg.ChangeAccRes); !ok || res.OfferedAcc != float64(i) {
			t.Fatalf("call %d resolved with %#v (duplicate crossed?)", i, resp)
		}
	}
	net.Close()
	if got := reg.Counter("wire_late_replies").Value(); got != 2*calls {
		t.Fatalf("wire_late_replies = %d, want %d (two extra copies per call)", got, 2*calls)
	}
	assertQuiesced(t, cli)
}

// TestOutOfOrderCorrelationIDExact issues a fan of concurrent requests
// whose replies are held for decreasing delays, so they are released in
// the reverse of request order: every pending call must still resolve
// with exactly its own echoed value.
func TestOutOfOrderCorrelationIDExact(t *testing.T) {
	const fan = 8
	clk := clock.NewManual(time.Unix(1000, 0))
	net := NewInproc(InprocOptions{
		Clock: clk,
		FaultPlan: func(_, _ msg.NodeID, env msg.Envelope) Fault {
			if env.Reply {
				// Higher CorrIDs get shorter delays: reply order is the
				// reverse of request order.
				return Fault{Delay: time.Duration(fan-int(env.CorrID)) * 10 * time.Millisecond}
			}
			return Fault{}
		},
	})
	defer net.Close()
	if _, err := net.Attach("srv", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	pending := make([]*PendingCall, 0, fan)
	for i := 1; i <= fan; i++ {
		p, err := cli.CallAsync(ctx, "srv", msg.ChangeAccReq{OID: "o", DesAcc: float64(i)})
		if err != nil {
			t.Fatalf("issuing call %d: %v", i, err)
		}
		if p.id != uint64(i) {
			t.Fatalf("call %d got correlation id %d", i, p.id)
		}
		pending = append(pending, p)
	}
	clk.BlockUntil(fan - 1) // every reply held but the last call's
	clk.Advance(fan * 10 * time.Millisecond)
	for i, p := range pending {
		resp, err := p.Wait(ctx)
		if err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
		res, ok := resp.(msg.ChangeAccRes)
		if !ok || res.OfferedAcc != float64(i+1) {
			t.Fatalf("call %d resolved with %#v, want echo %d", i+1, resp, i+1)
		}
	}
	assertQuiesced(t, cli)
}

// TestSweeperResolvesAsTimeoutFrame pins the timeout-as-error-frame
// contract: a call whose reply never comes resolves via the sweeper with
// an error that is both core.ErrTimeout and context.DeadlineExceeded to
// errors.Is, leaving no in-flight entry behind.
func TestSweeperResolvesAsTimeoutFrame(t *testing.T) {
	net := NewInproc(InprocOptions{
		CallTimeout:   30 * time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
		FaultPlan: func(_, _ msg.NodeID, env msg.Envelope) Fault {
			return Fault{Drop: env.Reply} // lose every reply
		},
	})
	defer net.Close()
	if _, err := net.Attach("srv", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cli.CallAsync(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, werr := p.Wait(context.Background())
	if werr == nil {
		t.Fatal("call with dropped reply succeeded")
	}
	if !errors.Is(werr, core.ErrTimeout) {
		t.Fatalf("error = %v, want core.ErrTimeout in chain", werr)
	}
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded in chain", werr)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("sweeper took %v to resolve a 30ms deadline", elapsed)
	}
	waitQuiesced(t, cli)
}

// TestInFlightCapBackpressure pins the bounded in-flight table: with the
// cap saturated, the next CallAsync blocks until a slot frees (here: until
// its context expires), instead of growing the table without bound.
func TestInFlightCapBackpressure(t *testing.T) {
	release := make(chan struct{})
	slow := func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
		<-release
		return msg.Ack{}, nil
	}
	net := NewInproc(InprocOptions{MaxInFlight: 4})
	defer net.Close()
	if _, err := net.Attach("srv", slow); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}

	pending := make([]*PendingCall, 0, 4)
	for i := 0; i < 4; i++ {
		p, err := cli.CallAsync(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: float64(i)})
		if err != nil {
			t.Fatalf("filling cap, call %d: %v", i, err)
		}
		pending = append(pending, p)
	}
	if got := cli.PendingCalls(); got != 4 {
		t.Fatalf("PendingCalls = %d, want 4", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cli.CallAsync(ctx, "srv", msg.ChangeAccReq{OID: "o", DesAcc: 99}); err == nil {
		t.Fatal("call beyond the in-flight cap was admitted")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("over-cap error = %v, want DeadlineExceeded", err)
	}

	close(release)
	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer wcancel()
	for i, p := range pending {
		if _, err := p.Wait(wctx); err != nil {
			t.Fatalf("released call %d: %v", i, err)
		}
	}
	// A slot is free again: the next call is admitted immediately.
	resp, err := cli.Call(wctx, "srv", msg.ChangeAccReq{OID: "o", DesAcc: 7})
	if err != nil {
		t.Fatalf("post-release call: %v", err)
	}
	if _, ok := resp.(msg.Ack); !ok {
		t.Fatalf("post-release call got %#v", resp)
	}
	waitQuiesced(t, cli)
}

// sendThroughLoss makes n sequential Sends through an Inproc network whose
// FaultPlan is loss.Plan and returns how many were delivered.
func sendThroughLoss(t *testing.T, loss *Loss, n int) int64 {
	t.Helper()
	var delivered atomic.Int64
	net := NewInproc(InprocOptions{FaultPlan: loss.Plan})
	sink := func(context.Context, msg.NodeID, msg.Message) (msg.Message, error) {
		delivered.Add(1)
		return nil, nil
	}
	if _, err := net.Attach("dst", sink); err != nil {
		t.Fatal(err)
	}
	src, err := net.Attach("src", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := src.Send("dst", msg.NotifyAvailAcc{OID: "o", OfferedAcc: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	net.Close() // waits for in-flight deliveries
	return delivered.Load()
}

// TestInprocDropRate pins an Inproc network's injected drop rate in its
// FaultPlan form: 1 000 sequential Sends through NewLoss(0.5, 42).Plan
// deliver exactly 487, the count Inproc's former built-in seeded drop rate
// delivered at the same rate and seed.
func TestInprocDropRate(t *testing.T) {
	if got := sendThroughLoss(t, NewLoss(0.5, 42), 1000); got != 487 {
		t.Errorf("NewLoss(0.5, 42): delivered %d of 1000, want 487", got)
	}
}

// TestSeededFaultsDeterministic pins a seeded Loss's draw sequence through
// an Inproc FaultPlan: 1 000 sequential Sends deliver exactly the counts that
// Inproc's former built-in seeded drop rate delivered at the same rate and
// seed, so the loss soaks lose the same envelopes they always lost. A
// lossless phase draws nothing: after 500 Sends at rate 0, SetRate(0.2)
// delivers what a fresh Loss at 0.2 delivers, which keeps a soak's staged
// fault window unchanged.
func TestSeededFaultsDeterministic(t *testing.T) {
	for _, c := range []struct {
		rate float64
		seed int64
		want int64
	}{{0.2, 7, 805}, {0.1, 9, 901}} {
		if got := sendThroughLoss(t, NewLoss(c.rate, c.seed), 1000); got != c.want {
			t.Errorf("NewLoss(%v, %d): delivered %d of 1000, want %d", c.rate, c.seed, got, c.want)
		}
	}

	staged := NewLoss(0, 7)
	if got := sendThroughLoss(t, staged, 500); got != 500 {
		t.Fatalf("rate 0 delivered %d of 500", got)
	}
	staged.SetRate(0.2)
	if got := sendThroughLoss(t, staged, 1000); got != 805 {
		t.Errorf("after 500 lossless sends, SetRate(0.2) delivered %d of 1000, want 805 as from a fresh Loss", got)
	}
}
