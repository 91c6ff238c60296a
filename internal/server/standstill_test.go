package server_test

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

// TestNothingTimedWhileClockStands holds a deployment's manual clock still
// for a stretch of wall time with four timed things outstanding — a call to
// a downed node, a TTL'd object, a path message waiting to be re-asserted
// and an open breaker — and checks that none of them moves. Then it
// advances the clock to each one's deadline in turn and checks that each
// happens on the Advance that crosses it, and not a nanosecond earlier
// where the crossing is observable synchronously.
func TestNothingTimedWhileClockStands(t *testing.T) {
	const (
		ttl         = 10 * time.Second
		callTimeout = 100 * time.Millisecond
		sweep       = 10 * time.Millisecond
		cooldown    = 300 * time.Millisecond
		hold        = 200 * time.Millisecond
	)
	var dropLost atomic.Bool // lose every CreatePath for "lost" to the root
	dropLost.Store(true)
	ls, clk := newManualLS(t, quadSpec(), server.Options{
		SightingTTL:     ttl,
		JanitorInterval: time.Second,
		PathRetry:       transport.RetryPolicy{MaxAttempts: 1, PerTryTimeout: callTimeout},
	}, transport.InprocOptions{
		CallTimeout:      callTimeout,
		SweepInterval:    sweep,
		BreakerThreshold: 1,
		BreakerCooldown:  cooldown,
		FaultPlan: func(_, to msg.NodeID, env msg.Envelope) transport.Fault {
			b, ok := env.Msg.(msg.PathBatch)
			lost := ok && slices.ContainsFunc(b.Changes, func(c msg.PathChange) bool { return c.OID == "lost" })
			return transport.Fault{Drop: lost && to == "r" && dropLost.Load()}
		},
	})
	start := clk.Now()
	root, _ := ls.dep.Server("r")
	keptAt, lostAt := geo.Pt(100, 100), geo.Pt(1400, 1400)
	keptLeafID, _ := ls.dep.LeafFor(keptAt)
	lostLeafID, _ := ls.dep.LeafFor(lostAt)
	keptLeaf, lostLeaf := ls.dep.Servers[keptLeafID], ls.dep.Servers[lostLeafID]

	// A TTL'd object with its path at the root, and one whose only
	// CreatePath to the root is lost, spending its one-try budget and
	// opening the leaf's breaker toward the root.
	owner := ls.newClientAt(t, "owner", keptAt, client.Options{})
	if _, err := owner.Register(ctx(t), sightingAt("kept", keptAt), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	far := ls.newClientAt(t, "far", lostAt, client.Options{})
	if _, err := far.Register(ctx(t), sightingAt("lost", lostAt), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := root.VisitorForTest("kept"); return ok }, "kept's path at the root")
	waitFor(t, func() bool { return keptLeaf.PendingCalls() == 0 }, "kept's path acknowledged")

	// A probe node whose breaker toward a downed node opens on one timeout.
	probe := attachProbe(t, ls.net, "probe")
	for _, id := range []msg.NodeID{"dark", "darker"} {
		nd, err := ls.net.Attach(id, func(context.Context, msg.NodeID, msg.Message) (msg.Message, error) {
			return msg.Ack{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		ls.net.SetNodeDown(id, true)
	}
	first, err := probe.CallAsync(context.Background(), "dark", msg.DiagReq{})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(callTimeout + sweep) // t = 110ms
	if _, err := first.Wait(context.Background()); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("call to a downed node: err = %v, want timeout", err)
	}
	failed := lostLeaf.Metrics().Counter("path_propagation_failed")
	reasserted := lostLeaf.Metrics().Counter("path_reasserted")
	// Armed now: each leaf's resync ticker and janitor, the sweepers of the
	// three nodes that made calls (the two leaves' paths and the probe),
	// and the lost CreatePath's re-assertion.
	clk.BlockUntil(2*quadLeafTickers + 3 + 1)
	if got := failed.Value(); got != 1 {
		t.Fatalf("path_propagation_failed = %d after the one try was lost, want 1", got)
	}
	pending, err := probe.CallAsync(context.Background(), "darker", msg.DiagReq{}) // deadline 210ms
	if err != nil {
		t.Fatal(err)
	}
	stood := clk.Now()

	// The hold: wall time passes, the deployment's time does not, and the
	// deployment keeps answering queries meanwhile.
	queries := 0
	for wallEnd := time.Now().Add(hold); time.Now().Before(wallEnd); queries++ {
		if _, err := owner.PosQuery(ctx(t), "kept"); err != nil {
			t.Fatalf("query %d while the clock stood: %v", queries, err)
		}
	}

	if got := clk.Now(); !got.Equal(stood) {
		t.Fatalf("the clock moved during the hold: %v", got.Sub(stood))
	}
	select {
	case m := <-pending.Done():
		t.Fatalf("a call to a downed node resolved while the clock stood: %#v", m)
	default:
	}
	if n := keptLeaf.Metrics().Counter("soft_state_expired").Value(); n != 0 || keptLeaf.VisitorCount() != 1 {
		t.Fatalf("the TTL'd object expired while the clock stood (%d expired)", n)
	}
	if got := reasserted.Value(); got != 0 {
		t.Fatalf("path_reasserted = %d while the clock stood", got)
	}
	if _, ok := root.VisitorForTest("lost"); ok {
		t.Fatal("the lost CreatePath reached the root while the clock stood")
	}
	if _, err := probe.Call(context.Background(), "dark", msg.DiagReq{}); !errors.Is(err, transport.ErrBreakerOpen) {
		t.Fatalf("call across an open breaker while the clock stood: err = %v, want ErrBreakerOpen", err)
	}

	// The pending call resolves on the sweep after its deadline.
	clk.Advance(callTimeout + sweep) // t = 220ms
	if _, err := pending.Wait(context.Background()); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("pending call after its deadline: err = %v, want timeout", err)
	}

	// The breaker admits a probe call at its cooldown, not before.
	ls.net.SetNodeDown("dark", false)
	openedAt := stood // by the sweep that timed the first call out
	advanceTo := func(at time.Time) {
		if d := at.Sub(clk.Now()); d > 0 {
			clk.Advance(d)
		}
	}
	advanceTo(openedAt.Add(cooldown - time.Nanosecond))
	if _, err := probe.Call(context.Background(), "dark", msg.DiagReq{}); !errors.Is(err, transport.ErrBreakerOpen) {
		t.Fatalf("call a nanosecond before the cooldown: err = %v, want ErrBreakerOpen", err)
	}
	clk.Advance(time.Nanosecond)
	if _, err := probe.Call(context.Background(), "dark", msg.DiagReq{}); err != nil {
		t.Fatalf("probe call at the cooldown: %v", err)
	}

	// The lost path is re-asserted at the cadence, and the healed link and
	// the breaker, past its cooldown, deliver it.
	dropLost.Store(false)
	advanceTo(stood.Add(server.PathReassertIntervalForTest - time.Nanosecond))
	if got := reasserted.Value(); got != 0 {
		t.Fatalf("path_reasserted = %d a nanosecond before the cadence", got)
	}
	clk.Advance(time.Nanosecond)
	if got := reasserted.Value(); got != 1 {
		t.Fatalf("path_reasserted = %d at the cadence, want 1", got)
	}
	waitFor(t, func() bool { _, ok := root.VisitorForTest("lost"); return ok }, "the re-asserted path at the root")

	// The TTL: at it the janitor's tick keeps the objects, on the first
	// tick past it they expire and their paths are torn down.
	advanceTo(start.Add(ttl))
	if got := keptLeaf.Metrics().Counter("soft_state_expired").Value(); got != 0 {
		t.Fatalf("soft_state_expired = %d at the TTL", got)
	}
	clk.Advance(time.Second)
	waitFor(t, func() bool {
		return keptLeaf.VisitorCount() == 0 && lostLeaf.VisitorCount() == 0 && root.VisitorCount() == 0
	}, "both objects to expire and their paths to go")
}
