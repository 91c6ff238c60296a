package transport

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
	"locsvc/internal/wire"
)

// waitCounter polls a counter until it reaches want or the deadline passes.
func waitCounter(t *testing.T, c *metrics.Counter, want int64, what string) {
	t.Helper()
	if !eventually(2*time.Second, func() bool { return c.Value() >= want }) {
		t.Fatalf("%s = %d, want ≥ %d", what, c.Value(), want)
	}
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

// TestUDPBatchingInterop pins wire compatibility in both directions
// between a node capped at one envelope per datagram and a batching one:
// the batching sender's multi-envelope batches are decoded by the
// batch-aware read loop every UDP node runs, and the cap-1 sender's
// datagrams are each the bare legacy frame of one envelope, byte for byte.
func TestUDPBatchingInterop(t *testing.T) {
	regA, regB := metrics.NewRegistry(), metrics.NewRegistry()
	batching := NewUDPWithOptions(UDPOptions{Metrics: regA, BatchMax: 8})
	defer batching.Close()
	single := NewUDPWithOptions(UDPOptions{Metrics: regB, BatchMax: 1})
	defer single.Close()

	// sendAll sends n notifications from src to sink and waits for each to
	// arrive exactly once.
	const n = 24
	sendAll := func(src, dstNet *UDP, srcID, sinkID msg.NodeID) {
		t.Helper()
		got := make(chan float64, n)
		if _, err := dstNet.Attach(sinkID, func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
			if v, ok := m.(msg.NotifyAvailAcc); ok {
				got <- v.OfferedAcc
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		from, err := src.Attach(srcID, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Cross-network: the sender needs a route to the sink.
		addr, _ := route(dstNet, sinkID)
		if err := src.AddRoute(sinkID, addr); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := from.Send(sinkID, msg.NotifyAvailAcc{OID: "o", OfferedAcc: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		seen := make(map[float64]bool)
		timeout := time.After(2 * time.Second)
		for len(seen) < n {
			select {
			case v := <-got:
				if seen[v] {
					t.Fatalf("%s → %s: value %v delivered twice", srcID, sinkID, v)
				}
				seen[v] = true
			case <-timeout:
				t.Fatalf("%s → %s: only %d/%d envelopes arrived", srcID, sinkID, len(seen), n)
			}
		}
	}

	sendAll(batching, single, "batch-src", "single-sink")
	if out := regA.Counter("wire_datagrams_out").Value(); out >= n {
		t.Errorf("batching sender used %d datagrams for %d envelopes", out, n)
	}
	sendAll(single, batching, "single-src", "batch-sink")
	if out := regB.Counter("wire_datagrams_out").Value(); out != n {
		t.Errorf("cap-1 sender used %d datagrams for %d envelopes", out, n)
	}

	// Byte for byte: what the cap-1 node puts on the wire is the legacy
	// frame wire.AppendEncode produces for the envelope.
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := single.AddRoute("raw", raw.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	from, err := single.Attach("single-raw-src", nil)
	if err != nil {
		t.Fatal(err)
	}
	env := msg.Envelope{From: "single-raw-src", Msg: msg.NotifyAvailAcc{OID: "o", OfferedAcc: 7}}
	if err := from.Send("raw", env.Msg); err != nil {
		t.Fatal(err)
	}
	want, err := wire.AppendEncode(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxDatagram)
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, _, err := raw.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:got], want) {
		t.Errorf("cap-1 datagram = %x, want the legacy frame %x", buf[:got], want)
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
// to share one MaxDatagram datagram are split across datagrams instead of
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

// TestUDPWriteErrorsCounted writes through a node whose socket is closed
// under it. At a cap of one the envelope leaves on the sender's goroutine
// and Send reports the failed write; at a cap of eight it leaves on the
// flusher's, where no caller waits, so only wire_write_errors shows it.
func TestUDPWriteErrorsCounted(t *testing.T) {
	for _, batchMax := range []int{1, 8} {
		t.Run(fmt.Sprintf("cap%d", batchMax), func(t *testing.T) {
			reg := metrics.NewRegistry()
			nw := NewUDPWithOptions(UDPOptions{Metrics: reg, BatchMax: batchMax})
			defer nw.Close()
			if _, err := nw.Attach("sink", nil); err != nil {
				t.Fatal(err)
			}
			src, err := nw.Attach("src", nil)
			if err != nil {
				t.Fatal(err)
			}
			src.(*udpNode).conn.Close()
			err = src.Send("sink", msg.NotifyAvailAcc{OID: "o"})
			if batchMax == 1 {
				if err == nil || !strings.Contains(err.Error(), "transport: sending to sink") {
					t.Fatalf("Send = %v, want a sending error", err)
				}
			} else if err != nil {
				t.Fatalf("Send = %v, want nil: the flusher writes", err)
			}
			waitCounter(t, reg.Counter("wire_write_errors"), 1, "wire_write_errors")
			if out := reg.Counter("wire_datagrams_out").Value(); out != 0 {
				t.Errorf("wire_datagrams_out = %d after a failed write", out)
			}
		})
	}
}
