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

// Breaker nets time calls out after breakerCallTimeout, swept every
// breakerSweep, on a manual clock: a call to a dark peer resolves only when
// the test advances past its deadline.
const (
	breakerCallTimeout = 30 * time.Millisecond
	breakerSweep       = 5 * time.Millisecond
)

// breakerNet builds an inproc network on a manual clock with breakers
// armed, whose nodes down pauses.
func breakerNet(t *testing.T, threshold int, cooldown time.Duration, reg *metrics.Registry) (*Inproc, *NodesDown, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual(time.Unix(1000, 0))
	down := NewNodesDown(nil)
	net := NewInproc(InprocOptions{
		FaultPlan:        down.Plan,
		CallTimeout:      breakerCallTimeout,
		SweepInterval:    breakerSweep,
		BreakerThreshold: threshold,
		BreakerCooldown:  cooldown,
		Metrics:          reg,
		Clock:            clk,
	})
	t.Cleanup(func() { net.Close() })
	return net, down, clk
}

// callPastDeadline issues a call and advances clk past its deadline, so a
// call nobody answers resolves as the sweeper's timeout.
func callPastDeadline(clk *clock.Manual, nd Node, to msg.NodeID, m msg.Message) error {
	p, err := nd.CallAsync(context.Background(), to, m)
	if err != nil {
		return err
	}
	clk.Advance(breakerCallTimeout + breakerSweep)
	_, err = p.Wait(context.Background())
	return err
}

// assertQuiesced fails the test if nd's in-flight table holds an entry.
func assertQuiesced(t *testing.T, nd Node) {
	t.Helper()
	if n := nd.PendingCalls(); n != 0 {
		t.Fatalf("in-flight table not empty at quiesce: %d entries leaked", n)
	}
}

// TestBreakerOpensAndFailsFast pins the breaker state machine's first half:
// threshold consecutive swept timeouts toward a dark peer open the breaker,
// after which calls fail fast with ErrBreakerOpen — no in-flight entry, no
// timeout wait: the clock never moves while they are refused.
func TestBreakerOpensAndFailsFast(t *testing.T) {
	reg := metrics.NewRegistry()
	net, down, clk := breakerNet(t, 3, time.Hour, reg) // the cooldown is never advanced past
	if _, err := net.Attach("srv", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	down.SetNodeDown("srv", true)

	// Three consecutive timeouts open the breaker.
	for i := 0; i < 3; i++ {
		cerr := callPastDeadline(clk, cli, "srv", msg.ChangeAccReq{OID: "o", DesAcc: 1})
		if !errors.Is(cerr, core.ErrTimeout) {
			t.Fatalf("call %d to dark peer: err = %v, want timeout", i, cerr)
		}
	}
	if st := net.PeerState("cli", "srv"); st != PeerOpen {
		t.Fatalf("after %d timeouts breaker state = %v, want open", 3, st)
	}

	// Open breaker: a blocking call returns without the clock moving.
	_, cerr := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 2})
	if !errors.Is(cerr, ErrBreakerOpen) {
		t.Fatalf("open-breaker call err = %v, want ErrBreakerOpen", cerr)
	}
	if got := reg.Counter("wire_breaker_open").Value(); got == 0 {
		t.Fatal("wire_breaker_open counter not incremented")
	}
	assertQuiesced(t, cli)
	// Sends are refused too: no point writing datagrams at a dark peer.
	if serr := cli.Send("srv", msg.NotifyAvailAcc{OID: "o"}); !errors.Is(serr, ErrBreakerOpen) {
		t.Fatalf("open-breaker send err = %v, want ErrBreakerOpen", serr)
	}
}

// TestBreakerHalfOpensAndCloses pins the second half: the breaker refuses
// calls for exactly the cooldown, then admits one probe call; its success
// closes the breaker and traffic flows again.
func TestBreakerHalfOpensAndCloses(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	net, down, clk := breakerNet(t, 2, cooldown, nil)
	if _, err := net.Attach("srv", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}

	down.SetNodeDown("srv", true)
	for i := 0; i < 2; i++ {
		callPastDeadline(clk, cli, "srv", msg.ChangeAccReq{OID: "o", DesAcc: 1})
	}
	if st := net.PeerState("cli", "srv"); st != PeerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}

	// Peer recovers; a nanosecond short of the cooldown calls are still
	// refused, at the cooldown the next call is the probe and must close
	// the breaker.
	down.SetNodeDown("srv", false)
	clk.Advance(cooldown - time.Nanosecond)
	if _, cerr := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 41}); !errors.Is(cerr, ErrBreakerOpen) {
		t.Fatalf("call before the cooldown ended: err = %v, want ErrBreakerOpen", cerr)
	}
	clk.Advance(time.Nanosecond)
	resp, cerr := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 42})
	if cerr != nil {
		t.Fatalf("probe call after recovery: %v", cerr)
	}
	if res, ok := resp.(msg.ChangeAccRes); !ok || res.OfferedAcc != 42 {
		t.Fatalf("probe call got %#v", resp)
	}
	if st := net.PeerState("cli", "srv"); st != PeerClosed {
		t.Fatalf("breaker state after successful probe = %v, want closed", st)
	}
}

// TestBreakerFailedProbeReopens pins the probe-failure edge: a half-open
// breaker whose probe times out goes back to open for another cooldown, and
// concurrent calls while the probe is out fail fast.
func TestBreakerFailedProbeReopens(t *testing.T) {
	const cooldown = 40 * time.Millisecond
	net, down, clk := breakerNet(t, 2, cooldown, nil)
	if _, err := net.Attach("srv", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}

	down.SetNodeDown("srv", true)
	for i := 0; i < 2; i++ {
		callPastDeadline(clk, cli, "srv", msg.ChangeAccReq{OID: "o", DesAcc: 1})
	}
	clk.Advance(cooldown)

	// Peer still dark: the probe goes out (half-open) and stays pending
	// while the clock stands.
	probe, err := cli.CallAsync(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 2})
	if err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	if st := net.PeerState("cli", "srv"); st != PeerHalfOpen {
		t.Fatalf("breaker state with the probe out = %v, want half-open", st)
	}
	// While the probe is in flight, other calls fail fast.
	if _, cerr := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 3}); !errors.Is(cerr, ErrBreakerOpen) {
		t.Fatalf("call during probe err = %v, want ErrBreakerOpen", cerr)
	}
	clk.Advance(breakerCallTimeout + breakerSweep)
	if _, perr := probe.Wait(context.Background()); !errors.Is(perr, core.ErrTimeout) {
		t.Fatalf("probe err = %v, want timeout", perr)
	}
	if st := net.PeerState("cli", "srv"); st != PeerOpen {
		t.Fatalf("breaker state after failed probe = %v, want open again", st)
	}
	assertQuiesced(t, cli)
}

// TestAsymmetricPartition pins a directed partition, a FaultPlan that
// drops one link: with cli→srv cut, nothing from cli reaches srv
// (requests, and crucially also the replies to srv's own calls) while
// srv's messages still reach cli — the classic asymmetric-link failure
// where one side believes the other is dark.
func TestAsymmetricPartition(t *testing.T) {
	var atSrv atomic.Int64
	atCli := make(chan msg.Message, 1)
	const cooldown = 30 * time.Millisecond
	// The partition: while cut is set, every delivery on the directed link
	// cli→srv is dropped; srv→cli is untouched.
	var cut atomic.Bool
	clk := clock.NewManual(time.Unix(1000, 0))
	net := NewInproc(InprocOptions{
		CallTimeout:      breakerCallTimeout,
		SweepInterval:    breakerSweep,
		BreakerThreshold: 1,
		BreakerCooldown:  cooldown,
		Clock:            clk,
		FaultPlan: func(from, to msg.NodeID, _ msg.Envelope) Fault {
			return Fault{Drop: cut.Load() && from == "cli" && to == "srv"}
		},
	})
	t.Cleanup(func() { net.Close() })
	srv, err := net.Attach("srv", func(_ context.Context, _ msg.NodeID, _ msg.Message) (msg.Message, error) {
		atSrv.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
		atCli <- m
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cut.Store(true)

	// Blocked direction: the request never arrives, the call times out,
	// and one timeout opens cli's breaker (threshold 1).
	if cerr := callPastDeadline(clk, cli, "srv", msg.ChangeAccReq{OID: "o", DesAcc: 1}); !errors.Is(cerr, core.ErrTimeout) {
		t.Fatalf("blocked-direction call err = %v, want timeout", cerr)
	}
	if got := atSrv.Load(); got != 0 {
		t.Fatalf("blocked direction delivered %d messages", got)
	}
	if st := net.PeerState("cli", "srv"); st != PeerOpen {
		t.Fatalf("cli->srv breaker = %v, want open (threshold 1)", st)
	}

	// Live direction: srv's one-way messages still land at cli. (srv's
	// request/response calls would time out too — their replies travel
	// the blocked link — which is exactly the asymmetric failure mode.)
	if serr := srv.Send("cli", msg.NotifyAvailAcc{OID: "o"}); serr != nil {
		t.Fatalf("live-direction send failed: %v", serr)
	}
	if m := <-atCli; m != (msg.NotifyAvailAcc{OID: "o"}) {
		t.Fatalf("live direction delivered %#v", m)
	}

	// Healing the link lets the post-cooldown probe through; the probe's
	// auto-acknowledged success closes cli's breaker.
	cut.Store(false)
	clk.Advance(cooldown)
	if _, cerr := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 2}); cerr != nil {
		t.Fatalf("post-heal probe call failed: %v", cerr)
	}
	if atSrv.Load() == 0 {
		t.Fatal("healed direction delivered nothing")
	}
	if st := net.PeerState("cli", "srv"); st != PeerClosed {
		t.Fatalf("breaker after heal = %v, want closed", st)
	}
	assertQuiesced(t, cli)
}

// TestCallWithRetrySucceedsUnderLoss pins the retry loop: under heavy
// deterministic request loss a retried call still lands, the wire_retries
// counter records the extra attempts, and the fault-free path performs no
// retries at all.
func TestCallWithRetrySucceedsUnderLoss(t *testing.T) {
	reg := metrics.NewRegistry()
	drops := 3 // drop the first three requests, then deliver
	net := NewInproc(InprocOptions{
		CallTimeout:   20 * time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
		Metrics:       reg,
		FaultPlan: func(_, _ msg.NodeID, env msg.Envelope) Fault {
			if !env.Reply && drops > 0 {
				drops--
				return Fault{Drop: true}
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

	pol := RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
	dest := func() msg.NodeID { return "srv" }
	resp, err := CallWithRetry(context.Background(), cli, dest, msg.ChangeAccReq{OID: "o", DesAcc: 7}, pol)
	if err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if res, ok := resp.(msg.ChangeAccRes); !ok || res.OfferedAcc != 7 {
		t.Fatalf("retried call got %#v", resp)
	}
	if got := reg.Counter("wire_retries").Value(); got != 3 {
		t.Fatalf("wire_retries = %d, want 3", got)
	}
	// Fault-free call: no further retries counted.
	if _, err := CallWithRetry(context.Background(), cli, dest, msg.ChangeAccReq{OID: "o", DesAcc: 8}, pol); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("wire_retries").Value(); got != 3 {
		t.Fatalf("wire_retries after clean call = %d, want still 3", got)
	}
	waitQuiesced(t, cli)
}

// TestRetriesCountedThroughWrappingNode pins that a node wrapping another
// by embedding it — a tracing decorator's shape — still feeds its network's
// wire_retries: under total request loss three attempts count two retries,
// and a manual CountRetry through the wrapper counts one more.
func TestRetriesCountedThroughWrappingNode(t *testing.T) {
	reg := metrics.NewRegistry()
	net := NewInproc(InprocOptions{
		CallTimeout:   20 * time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
		Metrics:       reg,
		FaultPlan: func(_, _ msg.NodeID, env msg.Envelope) Fault {
			return Fault{Drop: !env.Reply}
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
	wrapped := struct{ Node }{cli}

	pol := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	dest := func() msg.NodeID { return "srv" }
	if _, err := CallWithRetry(context.Background(), wrapped, dest, msg.ChangeAccReq{OID: "o", DesAcc: 1}, pol); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("call under total loss: err = %v, want timeout", err)
	}
	if got := reg.Counter("wire_retries").Value(); got != 2 {
		t.Fatalf("wire_retries through the wrapper = %d, want 2", got)
	}
	CountRetry(wrapped)
	if got := reg.Counter("wire_retries").Value(); got != 3 {
		t.Fatalf("wire_retries after CountRetry through the wrapper = %d, want 3", got)
	}
	waitQuiesced(t, cli)
}

// TestRetryNonRetryableReturnsImmediately pins the budget guard: a
// deterministic application error consumes exactly one attempt.
func TestRetryNonRetryableReturnsImmediately(t *testing.T) {
	calls := 0
	handler := func(_ context.Context, _ msg.NodeID, _ msg.Message) (msg.Message, error) {
		calls++
		return nil, core.ErrNotFound
	}
	net := NewInproc(InprocOptions{})
	defer net.Close()
	if _, err := net.Attach("srv", handler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	pol := RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}
	_, cerr := CallWithRetry(context.Background(), cli, func() msg.NodeID { return "srv" },
		msg.ChangeAccReq{OID: "o"}, pol)
	if !errors.Is(cerr, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", cerr)
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times for a non-retryable error, want 1", calls)
	}
}

// TestRetryOnOpenBreaker pins the interplay of the two mechanisms: an open
// breaker fails attempts fast, each followed by a backoff on the node's
// clock, and once the peer has recovered and the cooldown has passed a
// later attempt in the same budget succeeds — the retry loop rides the
// breaker's probe. The node is observed attempt by attempt, so the test
// advances the clock only while the loop is parked on a backoff.
func TestRetryOnOpenBreaker(t *testing.T) {
	const cooldown = 30 * time.Millisecond
	net, down, clk := breakerNet(t, 1, cooldown, nil)
	if _, err := net.Attach("srv", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}

	// Trip the breaker.
	down.SetNodeDown("srv", true)
	callPastDeadline(clk, cli, "srv", msg.ChangeAccReq{OID: "o", DesAcc: 1})
	if st := net.PeerState("cli", "srv"); st != PeerOpen {
		t.Fatalf("breaker = %v, want open", st)
	}
	// Recover; a retried call must get through via the probe even though
	// its first attempts hit the open breaker.
	down.SetNodeDown("srv", false)
	obs := observedNode{Node: cli, attempts: make(chan error)}
	pol := RetryPolicy{MaxAttempts: 12, BaseBackoff: 15 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	type result struct {
		resp msg.Message
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, cerr := CallWithRetry(context.Background(), obs, func() msg.NodeID { return "srv" },
			msg.ChangeAccReq{OID: "o", DesAcc: 9}, pol)
		done <- result{resp, cerr}
	}()
	refused := 0
	for aerr := <-obs.attempts; aerr != nil; aerr = <-obs.attempts {
		if !errors.Is(aerr, ErrBreakerOpen) {
			t.Fatalf("attempt %d: err = %v, want ErrBreakerOpen", refused+1, aerr)
		}
		refused++
		clk.BlockUntil(2) // the sweeper's ticker and the backoff
		clk.Advance(cooldown)
	}
	if refused == 0 {
		t.Fatal("the first attempt got through an open breaker")
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("retried call across breaker recovery failed: %v", r.err)
	}
	if res, ok := r.resp.(msg.ChangeAccRes); !ok || res.OfferedAcc != 9 {
		t.Fatalf("got %#v", r.resp)
	}
	if st := net.PeerState("cli", "srv"); st != PeerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", st)
	}
	assertQuiesced(t, cli)
}

// observedNode hands the outcome of every Call to the test before the
// caller sees it.
type observedNode struct {
	Node
	attempts chan error
}

func (o observedNode) Call(ctx context.Context, to msg.NodeID, m msg.Message) (msg.Message, error) {
	resp, err := o.Node.Call(ctx, to, m)
	o.attempts <- err
	return resp, err
}
