package transport

import (
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

// TestOversizeEnvelopeFailsAtEncode verifies the encode-time datagram size
// guard: an envelope that would exceed MaxDatagram is rejected before the
// socket write with the message type and encoded size, instead of the
// opaque "message too long" the kernel used to return.
func TestOversizeEnvelopeFailsAtEncode(t *testing.T) {
	nw := NewUDPWithOptions(UDPOptions{})
	defer nw.Close()
	if _, err := nw.Attach("sink", nil); err != nil {
		t.Fatal(err)
	}
	src, err := nw.Attach("src", nil)
	if err != nil {
		t.Fatal(err)
	}

	// ~40 bytes per entry: 4k entries are ~160 KiB, past the 65,507-byte
	// UDP payload cap.
	objs := make([]core.Entry, 4_000)
	for i := range objs {
		objs[i] = core.Entry{
			OID: core.OID(fmt.Sprintf("object-%08d", i)),
			LD:  core.LocationDescriptor{Pos: geo.Pt(float64(i), float64(i)), Acc: 10},
		}
	}
	err = src.Send("sink", msg.RangeQueryRes{Objs: objs, Servers: 4})
	if err == nil {
		t.Fatal("oversize envelope sent without error")
	}
	for _, want := range []string{"RangeQueryRes", "exceeding", "65507"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if got := nw.Metrics().Counter("wire_oversize_dropped").Value(); got != 1 {
		t.Errorf("wire_oversize_dropped = %d, want 1", got)
	}
	// Nothing hit the wire.
	if got := nw.Metrics().Counter("wire_datagrams_out").Value(); got != 0 {
		t.Errorf("wire_datagrams_out = %d, want 0", got)
	}
}

// TestPathBatchSplitFitsDatagrams splits a queue of path messages the way
// a server's path stream does: with 64-byte object ids and a leaf area of
// many vertices it takes several envelopes, each encodes within
// MaxDatagram, and a UDP Send of each succeeds and delivers every message.
func TestPathBatchSplitFitsDatagrams(t *testing.T) {
	nw := NewUDPWithOptions(UDPOptions{})
	defer nw.Close()
	got := make(chan int, 64)
	if _, err := nw.Attach("sink", func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
		got <- len(m.(msg.PathBatch).Changes)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	src, err := nw.Attach("r.3.2", nil)
	if err != nil {
		t.Fatal(err)
	}
	var area core.Area
	for i := 0; i < 256; i++ {
		area.Vertices = append(area.Vertices, geo.Pt(float64(i), float64(i%17)))
	}
	changes := make([]msg.PathChange, 200)
	for i := range changes {
		changes[i] = msg.PathChange{
			OID:       core.OID(fmt.Sprintf("%064d", i)),
			Leaf:      msg.LeafInfo{ID: src.ID(), Area: area},
			SightingT: time.Unix(1_700_000_000, int64(i)).UTC(),
		}
	}
	envelopes := 0
	for rest := changes; len(rest) > 0; envelopes++ {
		n := wire.PathBatchPrefix(src.ID(), rest, MaxDatagram)
		b := msg.PathBatch{Changes: rest[:n]}
		data, err := wire.Encode(msg.Envelope{From: src.ID(), CorrID: 1<<64 - 1, Msg: b})
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > MaxDatagram {
			t.Fatalf("envelope %d: %d changes encode to %d bytes, over the %d-byte limit", envelopes, n, len(data), MaxDatagram)
		}
		if err := src.Send("sink", b); err != nil {
			t.Fatalf("envelope %d of %d changes: %v", envelopes, n, err)
		}
		rest = rest[n:]
	}
	if envelopes < 3 {
		t.Errorf("%d changes of ~4 KiB each took %d envelopes, want several", len(changes), envelopes)
	}
	delivered := 0
	for i := 0; i < envelopes; i++ {
		select {
		case n := <-got:
			delivered += n
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d envelopes delivered", i, envelopes)
		}
	}
	if delivered != len(changes) {
		t.Errorf("%d changes delivered, want %d", delivered, len(changes))
	}
}

// TestWireMetricsCounters checks the wire-level observability satellite:
// bytes and datagrams are counted in both directions on a shared registry,
// and malformed datagrams bump the decode-error counter instead of
// disappearing silently.
func TestWireMetricsCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	nw := NewUDPWithOptions(UDPOptions{Metrics: reg})
	defer nw.Close()
	if nw.Metrics() != reg {
		t.Fatal("Metrics() did not return the shared registry")
	}

	if _, err := nw.Attach("server", func(context.Context, msg.NodeID, msg.Message) (msg.Message, error) {
		return msg.UpdateRes{OfferedAcc: 25}, nil
	}); err != nil {
		t.Fatal(err)
	}
	client, err := nw.Attach("client", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.Call(ctx, "server", msg.UpdateReq{S: core.Sighting{OID: "o1", Pos: geo.Pt(1, 2), SensAcc: 3}}); err != nil {
		t.Fatal(err)
	}

	// Request and reply, both sent and received inside this process: two
	// datagrams out, two in, symmetric byte counts. The server counts its
	// reply after the send returns, which can be after the caller has the
	// reply in hand, so give the out-counters a moment to settle.
	eventually(2*time.Second, func() bool {
		return reg.Counter("wire_datagrams_out").Value() >= 2 &&
			reg.Counter("wire_bytes_out").Value() >= reg.Counter("wire_bytes_in").Value()
	})
	if got := reg.Counter("wire_datagrams_out").Value(); got != 2 {
		t.Errorf("wire_datagrams_out = %d, want 2", got)
	}
	if got := reg.Counter("wire_datagrams_in").Value(); got != 2 {
		t.Errorf("wire_datagrams_in = %d, want 2", got)
	}
	out, in := reg.Counter("wire_bytes_out").Value(), reg.Counter("wire_bytes_in").Value()
	if out == 0 || out != in {
		t.Errorf("wire_bytes_out = %d, wire_bytes_in = %d; want equal and nonzero", out, in)
	}

	// A garbage datagram straight at the server's socket must count as a
	// decode error (and not kill the read loop).
	addr, ok := nw.Route("server")
	if !ok {
		t.Fatal("server route missing")
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("definitely not an envelope")); err != nil {
		t.Fatal(err)
	}
	if !eventually(5*time.Second, func() bool { return reg.Counter("wire_decode_errors").Value() != 0 }) {
		t.Fatal("decode error never counted")
	}

	// The loop survived: the same client call still works.
	if _, err := client.Call(ctx, "server", msg.UpdateReq{S: core.Sighting{OID: "o2", Pos: geo.Pt(3, 4), SensAcc: 5}}); err != nil {
		t.Fatalf("call after garbage datagram: %v", err)
	}
}
