package transport

import (
	"context"
	"fmt"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
)

// waitCounter polls a counter until it reaches want or the deadline passes.
func waitCounter(t *testing.T, c *metrics.Counter, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Value() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s = %d, want ≥ %d", what, c.Value(), want)
}

// TestUDPBatchingCoalesces drives a burst of one-way sends through a
// batching UDP network and checks the tentpole's arithmetic: far fewer
// datagrams than envelopes hit the wire, batches appear in the metrics,
// and every envelope still arrives exactly once.
func TestUDPBatchingCoalesces(t *testing.T) {
	const burst = 64
	reg := metrics.NewRegistry()
	nw := NewUDPWithOptions(UDPOptions{
		Metrics:  reg,
		BatchMax: 16,
	})
	defer nw.Close()

	if _, err := nw.Attach("sink", nil); err != nil {
		t.Fatal(err)
	}
	src, err := nw.Attach("src", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if err := src.Send("sink", msg.NotifyAvailAcc{OID: "o", OfferedAcc: float64(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitCounter(t, reg.Counter("wire_envelopes_in"), burst, "wire_envelopes_in")

	if got := reg.Counter("wire_envelopes_out").Value(); got != burst {
		t.Errorf("wire_envelopes_out = %d, want %d", got, burst)
	}
	if got := reg.Counter("wire_batches_out").Value(); got < 1 {
		t.Errorf("wire_batches_out = %d, want ≥ 1", got)
	}
	if got := reg.Counter("wire_batches_in").Value(); got < 1 {
		t.Errorf("wire_batches_in = %d, want ≥ 1", got)
	}
	// The point of the exercise: the burst rode in far fewer datagrams
	// than envelopes. 64 envelopes at a 16-envelope cap need only 4
	// datagrams; allow slack for what the flusher sends mid-burst.
	if got := reg.Counter("wire_datagrams_out").Value(); got > burst/2 {
		t.Errorf("wire_datagrams_out = %d for %d envelopes, batching ineffective", got, burst)
	}
	if h := reg.Histogram("wire_envelopes_per_batch"); h.Count() < 1 || h.Max() < 2 {
		t.Errorf("wire_envelopes_per_batch: count %d max %.0f, want batches observed", h.Count(), h.Max())
	}
}

// TestUDPBatchingInterop pins wire compatibility in both directions: a
// batching sender talks to a non-batching receiver (1-envelope flushes are
// legacy frames; multi-envelope batches are decoded by the batch-aware
// read loop every UDP node runs), and a non-batching sender talks to a
// batching receiver.
func TestUDPBatchingInterop(t *testing.T) {
	regA := metrics.NewRegistry()
	batching := NewUDPWithOptions(UDPOptions{Metrics: regA, BatchMax: 8})
	defer batching.Close()
	plain := NewUDP()
	defer plain.Close()

	got := make(chan float64, 64)
	if _, err := plain.Attach("plain-sink", func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
		if n, ok := m.(msg.NotifyAvailAcc); ok {
			got <- n.OfferedAcc
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	src, err := batching.Attach("batch-src", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-network: the batching node needs a route to the plain one.
	sinkAddr, ok := plain.Route("plain-sink")
	if !ok {
		t.Fatal("plain network has no route to its own node")
	}
	if err := batching.AddRoute("plain-sink", sinkAddr); err != nil {
		t.Fatal(err)
	}

	const n = 24
	for i := 0; i < n; i++ {
		if err := src.Send("plain-sink", msg.NotifyAvailAcc{OID: "o", OfferedAcc: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[float64]bool)
	timeout := time.After(2 * time.Second)
	for len(seen) < n {
		select {
		case v := <-got:
			if seen[v] {
				t.Fatalf("value %v delivered twice", v)
			}
			seen[v] = true
		case <-timeout:
			t.Fatalf("only %d/%d envelopes arrived at the plain receiver", len(seen), n)
		}
	}
	if out := regA.Counter("wire_datagrams_out").Value(); out >= n {
		t.Errorf("batching sender used %d datagrams for %d envelopes", out, n)
	}
}

// bigResult returns range-query entries that encode to about 40 KiB (~40
// bytes per entry), so two such envelopes never fit in one 65,507-byte
// datagram.
func bigResult() []core.Entry {
	objs := make([]core.Entry, 1_000)
	for i := range objs {
		objs[i] = core.Entry{
			OID: core.OID(fmt.Sprintf("object-%08d", i)),
			LD:  core.LocationDescriptor{Pos: geo.Pt(float64(i), float64(i)), Acc: 10},
		}
	}
	return objs
}

// TestUDPBatchSizeCapFlush checks the size-aware flush: envelopes too big
// to share one maxDatagram datagram are split across datagrams instead of
// producing an oversize write error.
func TestUDPBatchSizeCapFlush(t *testing.T) {
	reg := metrics.NewRegistry()
	nw := NewUDPWithOptions(UDPOptions{
		Metrics:  reg,
		BatchMax: 64,
	})
	defer nw.Close()
	if _, err := nw.Attach("sink", nil); err != nil {
		t.Fatal(err)
	}
	src, err := nw.Attach("src", nil)
	if err != nil {
		t.Fatal(err)
	}

	objs := bigResult()
	const big = 4
	for i := 0; i < big; i++ {
		if err := src.Send("sink", msg.RangeQueryRes{Objs: objs, Servers: i}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitCounter(t, reg.Counter("wire_envelopes_in"), big, "wire_envelopes_in")
	// Each oversize envelope forced its own flush: no datagram carried two.
	if got := reg.Counter("wire_datagrams_out").Value(); got < big {
		t.Errorf("wire_datagrams_out = %d, want ≥ %d (size cap must split the batch)", got, big)
	}
}

// TestUDPCallRoundTripWithBatching runs the request/response path with
// batching enabled end to end: coalescing must not break correlation.
func TestUDPCallRoundTripWithBatching(t *testing.T) {
	nw := NewUDPWithOptions(UDPOptions{BatchMax: 8})
	defer nw.Close()
	if _, err := nw.Attach("server", valueEchoHandler); err != nil {
		t.Fatal(err)
	}
	cli, err := nw.Attach("client", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 1; i <= 8; i++ {
		resp, err := cli.Call(ctx, "server", msg.ChangeAccReq{OID: "o", DesAcc: float64(i)})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if res, ok := resp.(msg.ChangeAccRes); !ok || res.OfferedAcc != float64(i) {
			t.Fatalf("call %d resolved with %#v", i, resp)
		}
	}
	waitQuiesced(t, cli)
}
