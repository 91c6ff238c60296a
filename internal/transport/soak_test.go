package transport

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// TestMultiplexSoak is the race-detector soak for the multiplexed client:
// many goroutines issue calls through ONE node against a real UDP server
// while injected loss eats a fifth of the datagrams. Every call must end —
// as a success or as a timeout — with no leaked in-flight entries and
// metrics that balance against the outcome counts.
func TestMultiplexSoak(t *testing.T) {
	const (
		workers   = 16
		perWorker = 50
		total     = workers * perWorker
	)
	reg := metrics.NewRegistry()
	nw := NewUDPWithOptions(UDPOptions{
		Metrics:       reg,
		BatchMax:      8,
		CallTimeout:   150 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
		MaxInFlight:   64,
	})
	defer nw.Close()
	nw.SetLoss(NewLoss(0.2, 20260807))

	if _, err := nw.Attach("server", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := nw.Attach("client", nil)
	if err != nil {
		t.Fatal(err)
	}

	var ok, timedOut, other atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				want := float64(w*perWorker + i)
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				resp, err := cli.Call(ctx, "server", msg.ChangeAccReq{OID: "o", DesAcc: want})
				cancel()
				switch {
				case err == nil:
					res, isRes := resp.(msg.ChangeAccRes)
					if !isRes || res.OfferedAcc != want {
						t.Errorf("worker %d call %d: got %#v, want echo %v (crossed reply)", w, i, resp, want)
					}
					ok.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					timedOut.Add(1)
				default:
					other.Add(1)
					t.Errorf("worker %d call %d: unexpected error %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := ok.Load() + timedOut.Load() + other.Load(); got != total {
		t.Fatalf("accounted for %d calls, want %d", got, total)
	}
	if ok.Load() == 0 {
		t.Fatal("no call succeeded under 20%% loss — transport broken, not lossy")
	}
	if timedOut.Load() == 0 {
		t.Fatal("no call timed out under 20%% loss — loss injection inert")
	}
	t.Logf("soak: %d ok, %d timed out, loss_injected=%d, late_replies=%d, call_timeouts=%d",
		ok.Load(), timedOut.Load(),
		reg.Counter("wire_loss_injected").Value(),
		reg.Counter("wire_late_replies").Value(),
		reg.Counter("wire_call_timeouts").Value())

	// No leaked in-flight entries once the dust settles.
	waitQuiesced(t, cli)

	// Metrics must balance: every injected drop is counted, and the
	// tracker resolved at least every ctx-independent timeout through the
	// sweeper or saw the reply late.
	if reg.Counter("wire_loss_injected").Value() == 0 {
		t.Error("wire_loss_injected = 0 with a Loss at 0.2")
	}
	if to := reg.Counter("wire_call_timeouts").Value(); to < timedOut.Load() {
		t.Errorf("wire_call_timeouts = %d, but %d calls timed out", to, timedOut.Load())
	}
	// Everything that went out was counted; batching may compress
	// datagrams but never envelopes.
	if out, in := reg.Counter("wire_envelopes_out").Value(), reg.Counter("wire_envelopes_in").Value(); out < int64(total) || in > out {
		t.Errorf("envelope counters out=%d in=%d for %d calls", out, in, total)
	}
}
