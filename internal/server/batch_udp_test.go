package server_test

import (
	"fmt"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

// oidN names the i-th object of a test fleet.
func oidN(prefix string, i int) string { return fmt.Sprintf("%s-%02d", prefix, i) }

// TestEndToEndOverBatchedUDP re-runs the protocol stack over a batching
// UDP network: servers receive and send through the batch-aware loop, the
// client multiplexes async updates and queries, and the shared registry
// must show real batches on the wire. This pins that coalescing is
// invisible to the protocol — same answers, fewer datagrams.
func TestEndToEndOverBatchedUDP(t *testing.T) {
	reg := metrics.NewRegistry()
	net := transport.NewUDPWithOptions(transport.UDPOptions{
		Metrics:     reg,
		BatchMax:    16,
		CallTimeout: 5 * time.Second,
		MaxInFlight: 128,
	})
	defer net.Close()

	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1500, 1500),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
	}
	dep, err := hierarchy.Deploy(net, spec, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	entry, _ := dep.LeafFor(geo.Pt(100, 100))
	c, err := client.New(net, msg.NodeID("batch-client"), entry, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Register a fleet, then fan out async updates through the one
	// multiplexed client node — the coalescer's natural workload.
	const fleet = 12
	objs := make([]*client.TrackedObject, fleet)
	for i := range objs {
		oid := oidN("bo", i)
		obj, err := c.Register(ctx(t), sightingAt(oid, geo.Pt(100+float64(i), 100)), 10, 50, 3)
		if err != nil {
			t.Fatalf("register %d over batched UDP: %v", i, err)
		}
		objs[i] = obj
	}

	pending := make([]*client.PendingUpdate, fleet)
	for i, obj := range objs {
		pu, err := obj.UpdateAsync(ctx(t), sightingAt(oidN("bo", i), geo.Pt(300+float64(i), 300)))
		if err != nil {
			t.Fatalf("issuing async update %d: %v", i, err)
		}
		pending[i] = pu
	}
	for i, pu := range pending {
		if err := pu.Wait(ctx(t)); err != nil {
			t.Fatalf("async update %d: %v", i, err)
		}
	}

	// Async position queries resolve against the updated positions.
	queries := make([]*client.PendingPosQuery, fleet)
	for i := range queries {
		q, err := c.PosQueryAsync(ctx(t), core.OID(oidN("bo", i)), 0)
		if err != nil {
			t.Fatalf("issuing async query %d: %v", i, err)
		}
		queries[i] = q
	}
	for i, q := range queries {
		ld, err := q.Wait(ctx(t))
		if err != nil {
			t.Fatalf("async query %d: %v", i, err)
		}
		if want := geo.Pt(300+float64(i), 300); ld.Pos != want {
			t.Errorf("query %d: pos = %v, want %v", i, ld.Pos, want)
		}
	}

	// A sync round trip still works on the same batching network.
	if err := objs[0].Update(ctx(t), sightingAt(oidN("bo", 0), geo.Pt(900, 300))); err != nil {
		t.Fatalf("handover over batched UDP: %v", err)
	}
	if objs[0].Agent() != "r.1" {
		t.Errorf("agent after handover = %s", objs[0].Agent())
	}

	// The workload actually batched: multi-envelope datagrams flowed in
	// both directions, and datagrams stayed below envelopes.
	if got := reg.Counter("wire_batches_out").Value(); got < 1 {
		t.Errorf("wire_batches_out = %d, want ≥ 1", got)
	}
	if got := reg.Counter("wire_batches_in").Value(); got < 1 {
		t.Errorf("wire_batches_in = %d, want ≥ 1", got)
	}
	env, dg := reg.Counter("wire_envelopes_out").Value(), reg.Counter("wire_datagrams_out").Value()
	if dg >= env {
		t.Errorf("datagrams_out = %d ≥ envelopes_out = %d: nothing coalesced", dg, env)
	}
}
