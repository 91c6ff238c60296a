package transport

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// breakerNet builds an inproc network with fast sweeping and breakers armed.
func breakerNet(t *testing.T, threshold int, cooldown time.Duration, reg *metrics.Registry) *Inproc {
	t.Helper()
	net := NewInproc(InprocOptions{
		CallTimeout:      30 * time.Millisecond,
		SweepInterval:    5 * time.Millisecond,
		BreakerThreshold: threshold,
		BreakerCooldown:  cooldown,
		Metrics:          reg,
	})
	t.Cleanup(func() { net.Close() })
	return net
}

// TestBreakerOpensAndFailsFast pins the breaker state machine's first half:
// threshold consecutive swept timeouts toward a dark peer open the breaker,
// after which calls fail fast with ErrBreakerOpen — no in-flight entry, no
// timeout wait.
func TestBreakerOpensAndFailsFast(t *testing.T) {
	reg := metrics.NewRegistry()
	net := breakerNet(t, 3, time.Hour, reg) // cooldown never elapses in-test
	if _, err := net.Attach("srv", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	net.SetNodeDown("srv", true)

	// Three consecutive timeouts open the breaker.
	for i := 0; i < 3; i++ {
		_, cerr := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 1})
		if !errors.Is(cerr, core.ErrTimeout) {
			t.Fatalf("call %d to dark peer: err = %v, want timeout", i, cerr)
		}
	}
	if st := net.PeerState("cli", "srv"); st != PeerOpen {
		t.Fatalf("after %d timeouts breaker state = %v, want open", 3, st)
	}

	// Open breaker: fail fast, well under the 30ms call timeout.
	start := time.Now()
	_, cerr := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 2})
	if !errors.Is(cerr, ErrBreakerOpen) {
		t.Fatalf("open-breaker call err = %v, want ErrBreakerOpen", cerr)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("open-breaker call took %v, want fail-fast", elapsed)
	}
	if got := reg.Counter("wire_breaker_open").Value(); got == 0 {
		t.Fatal("wire_breaker_open counter not incremented")
	}
	if cli.PendingCalls() != 0 {
		t.Fatalf("fail-fast call left %d in-flight entries", cli.PendingCalls())
	}
	// Sends are refused too: no point writing datagrams at a dark peer.
	if serr := cli.Send("srv", msg.NotifyAvailAcc{OID: "o"}); !errors.Is(serr, ErrBreakerOpen) {
		t.Fatalf("open-breaker send err = %v, want ErrBreakerOpen", serr)
	}
}

// TestBreakerHalfOpensAndCloses pins the second half: after the cooldown
// one probe call is admitted; its success closes the breaker and traffic
// flows again, within one probe interval of the peer's recovery.
func TestBreakerHalfOpensAndCloses(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	net := breakerNet(t, 2, cooldown, nil)
	if _, err := net.Attach("srv", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}

	net.SetNodeDown("srv", true)
	for i := 0; i < 2; i++ {
		cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 1})
	}
	if st := net.PeerState("cli", "srv"); st != PeerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}

	// Peer recovers; after the cooldown the next call is the probe and
	// must close the breaker.
	net.SetNodeDown("srv", false)
	time.Sleep(cooldown + 10*time.Millisecond)
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
	net := breakerNet(t, 2, cooldown, nil)
	if _, err := net.Attach("srv", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}

	net.SetNodeDown("srv", true)
	for i := 0; i < 2; i++ {
		cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 1})
	}
	time.Sleep(cooldown + 10*time.Millisecond)

	// Peer still dark: the probe goes out (half-open) and times out.
	done := make(chan error, 1)
	go func() {
		_, perr := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 2})
		done <- perr
	}()
	// While the probe is in flight, other calls fail fast.
	time.Sleep(5 * time.Millisecond)
	if _, cerr := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 3}); !errors.Is(cerr, ErrBreakerOpen) {
		t.Fatalf("call during probe err = %v, want ErrBreakerOpen", cerr)
	}
	if perr := <-done; !errors.Is(perr, core.ErrTimeout) {
		t.Fatalf("probe err = %v, want timeout", perr)
	}
	if st := net.PeerState("cli", "srv"); st != PeerOpen {
		t.Fatalf("breaker state after failed probe = %v, want open again", st)
	}
	waitQuiesced(t, cli)
}

// TestAsymmetricPartition pins Block's directedness: with cli→srv blocked,
// nothing from cli reaches srv (requests, and crucially also the replies to
// srv's own calls) while srv's messages still reach cli — the classic
// asymmetric-link failure where one side believes the other is dark.
func TestAsymmetricPartition(t *testing.T) {
	var atSrv, atCli atomic.Int64
	counting := func(n *atomic.Int64) Handler {
		return func(_ context.Context, _ msg.NodeID, _ msg.Message) (msg.Message, error) {
			n.Add(1)
			return nil, nil
		}
	}
	const cooldown = 30 * time.Millisecond
	net := breakerNet(t, 1, cooldown, nil)
	srv, err := net.Attach("srv", counting(&atSrv))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", counting(&atCli))
	if err != nil {
		t.Fatal(err)
	}
	net.Block("cli", "srv", true)

	// Blocked direction: the request never arrives, the call times out,
	// and one timeout opens cli's breaker (threshold 1).
	if _, cerr := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 1}); !errors.Is(cerr, core.ErrTimeout) {
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
	deadline := time.Now().Add(time.Second)
	for atCli.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := atCli.Load(); got == 0 {
		t.Fatal("live direction delivered nothing")
	}

	// Healing the link lets the post-cooldown probe through; the probe's
	// auto-acknowledged success closes cli's breaker.
	net.Block("cli", "srv", false)
	time.Sleep(cooldown + 10*time.Millisecond)
	if _, cerr := cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 2}); cerr != nil {
		t.Fatalf("post-heal probe call failed: %v", cerr)
	}
	if atSrv.Load() == 0 {
		t.Fatal("healed direction delivered nothing")
	}
	if st := net.PeerState("cli", "srv"); st != PeerClosed {
		t.Fatalf("breaker after heal = %v, want closed", st)
	}
	waitQuiesced(t, cli)
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
// breaker fails attempts fast, and once the peer recovers past the cooldown
// a later attempt in the same budget succeeds — the retry loop rides the
// breaker's probe. The budget has room for a probe lost to a loaded host:
// its attempt waits out the call timeout, and the breaker re-opens for
// another cooldown before the next probe.
func TestRetryOnOpenBreaker(t *testing.T) {
	net := NewInproc(InprocOptions{
		CallTimeout:      100 * time.Millisecond,
		SweepInterval:    5 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Millisecond,
	})
	defer net.Close()
	if _, err := net.Attach("srv", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach("cli", valueEchoHandler)
	if err != nil {
		t.Fatal(err)
	}

	// Trip the breaker.
	net.SetNodeDown("srv", true)
	cli.Call(context.Background(), "srv", msg.ChangeAccReq{OID: "o", DesAcc: 1})
	if st := net.PeerState("cli", "srv"); st != PeerOpen {
		t.Fatalf("breaker = %v, want open", st)
	}
	// Recover; a retried call must get through via the probe even though
	// its first attempts hit the open breaker.
	net.SetNodeDown("srv", false)
	pol := RetryPolicy{MaxAttempts: 12, BaseBackoff: 15 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	resp, cerr := CallWithRetry(context.Background(), cli, func() msg.NodeID { return "srv" },
		msg.ChangeAccReq{OID: "o", DesAcc: 9}, pol)
	if cerr != nil {
		t.Fatalf("retried call across breaker recovery failed: %v", cerr)
	}
	if res, ok := resp.(msg.ChangeAccRes); !ok || res.OfferedAcc != 9 {
		t.Fatalf("got %#v", resp)
	}
	if st := net.PeerState("cli", "srv"); st != PeerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", st)
	}
	waitQuiesced(t, cli)
}
