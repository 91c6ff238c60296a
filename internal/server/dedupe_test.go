package server_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// TestDedupeWindowEviction pins the time-based half of the eviction policy:
// entries older than the window are misses, with no sweep needed to make
// them so.
func TestDedupeWindowEviction(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	net := transport.NewInproc(transport.InprocOptions{Clock: clk})
	defer net.Close()
	ls := newDedupeLeaf(t, net, server.Options{DedupeWindow: 10 * time.Second})

	probe := attachProbe(t, net, "probe")
	registerVia(t, net, "o1", geo.Pt(100, 100))

	// Seq 1 applied and remembered.
	res := callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(110, 100), 1))
	if res.Moved {
		t.Fatalf("in-area update reported Moved")
	}

	// Within the window a duplicate is answered from the table.
	callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(999, 999), 1))
	if got := ls.Metrics().Counter("updates_deduped").Value(); got != 1 {
		t.Fatalf("updates_deduped = %d, want 1", got)
	}

	// Past the window the same Seq is a miss: the update is applied anew.
	clk.Advance(11 * time.Second)
	callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(120, 100), 1))
	if got := ls.Metrics().Counter("updates_deduped").Value(); got != 1 {
		t.Fatalf("updates_deduped after window = %d, want still 1", got)
	}
	if got := ls.Metrics().Counter("updates_local").Value(); got != 2 {
		t.Fatalf("updates_local = %d, want 2 (initial + post-window retry)", got)
	}
}

// TestDedupeCapEviction pins the depth half: a sender's window holds its
// most recent requests, at most DedupeCap of them, and the oldest fall out
// first.
func TestDedupeCapEviction(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	ls := newDedupeLeaf(t, net, server.Options{DedupeCap: 3})

	probe := attachProbe(t, net, "probe")
	registerVia(t, net, "o1", geo.Pt(100, 100))

	// Seqs 1..4 through a cap of 3: Seq 1 must have been dropped, so a
	// retry of it is applied again rather than answered from the table.
	for seq := uint64(1); seq <= 4; seq++ {
		callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(100+float64(seq), 100), seq))
	}
	callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(200, 100), 1))
	if got := ls.Metrics().Counter("updates_deduped").Value(); got != 0 {
		t.Fatalf("updates_deduped = %d, want 0 (seq 1 evicted by cap)", got)
	}
	// Seq 4 is still resident.
	callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(300, 100), 4))
	if got := ls.Metrics().Counter("updates_deduped").Value(); got != 1 {
		t.Fatalf("updates_deduped = %d, want 1 (seq 4 still remembered)", got)
	}
}

// TestDedupeSeqZeroOptsOut pins that unstamped requests (Seq 0) are never
// remembered: every send is applied.
func TestDedupeSeqZeroOptsOut(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	ls := newDedupeLeaf(t, net, server.Options{})

	probe := attachProbe(t, net, "probe")
	registerVia(t, net, "o1", geo.Pt(100, 100))

	for i := 0; i < 3; i++ {
		callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(100, 100), 0))
	}
	if got := ls.Metrics().Counter("updates_deduped").Value(); got != 0 {
		t.Fatalf("updates_deduped = %d, want 0 for unstamped requests", got)
	}
	if got := ls.Metrics().Counter("updates_local").Value(); got != 3 {
		t.Fatalf("updates_local = %d, want 3", got)
	}
}

// TestDedupeReplaysHandoverReply pins the scenario the table exists for: an
// update triggers a handover, the reply is lost, and the retry must get the
// remembered Moved reply — re-applying would fail with not_found against
// the departed record and strand the client on the old agent.
func TestDedupeReplaysHandoverReply(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	c := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	if _, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}

	probe := attachProbe(t, ls.net, "probe")
	// The sighting moves to r.1's quarter: handover.
	req := updateReq("o1", geo.Pt(1200, 100), 7)
	res := callUpdate(t, probe, "r.0", req)
	if !res.Moved || res.NewAgent != "r.1" {
		t.Fatalf("handover reply = %+v, want Moved to r.1", res)
	}

	// The retried duplicate: the record is gone from r.0, so only the
	// remembered reply can answer it.
	dup := callUpdate(t, probe, "r.0", req)
	if !dup.Moved || dup.NewAgent != res.NewAgent {
		t.Fatalf("duplicate reply = %+v, want remembered %+v", dup, res)
	}
	leaf, _ := ls.dep.Server("r.0")
	if got := leaf.Metrics().Counter("updates_deduped").Value(); got != 1 {
		t.Fatalf("updates_deduped = %d, want 1", got)
	}
	if got := leaf.Metrics().Counter("handover_initiated").Value(); got != 1 {
		t.Fatalf("handover_initiated = %d, want 1 (duplicate must not re-handover)", got)
	}
}

// TestDedupeClearedByRestart pins that a leaf restart loses the table with
// the process: the first post-restart update with a previously used Seq is
// applied, not answered from a stale remembered reply.
func TestDedupeClearedByRestart(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()

	dir := t.TempDir()
	spec := quadSpec()
	configs, err := hierarchy.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	rootArea := core.AreaFromRect(spec.RootArea)

	servers := make(map[string]*server.Server)
	for _, cfg := range configs {
		opts := server.Options{}
		if cfg.ID == "r.0" {
			wal, werr := store.OpenFileWAL(filepath.Join(dir, "r0.wal"))
			if werr != nil {
				t.Fatal(werr)
			}
			opts.WAL = wal
		}
		srv, serr := server.New(cfg, rootArea, net, opts)
		if serr != nil {
			t.Fatal(serr)
		}
		servers[cfg.ID] = srv
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	c, err := client.New(net, "owner", "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register(context.Background(), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}

	probe := attachProbe(t, net, "probe")
	callUpdate(t, probe, "r.0", updateReq("o1", geo.Pt(110, 100), 5))

	// Crash and restart from the same WAL: the visitorDB survives, the
	// dedupe table does not.
	if err := servers["r.0"].Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := store.OpenFileWAL(filepath.Join(dir, "r0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := server.New(configs[1], rootArea, net, server.Options{WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	servers["r.0"] = restarted
	if restarted.SightingCount() != 0 {
		t.Fatalf("sightings survived crash: %d", restarted.SightingCount())
	}

	// Same sender, same Seq as before the crash: this is the object's
	// recovery update and it must be applied.
	callUpdate(t, probe, "r.0", updateReq("o1", geo.Pt(120, 100), 5))
	if got := restarted.Metrics().Counter("updates_deduped").Value(); got != 0 {
		t.Fatalf("updates_deduped = %d, want 0 after restart", got)
	}
	if restarted.SightingCount() != 1 {
		t.Fatalf("recovery update not applied: %d sightings", restarted.SightingCount())
	}
}

// TestDedupeGaugesAndSenderSweep pins what an operator sees of the table and
// what bounds it: every janitor tick exports the senders a leaf remembers
// replies for and the slots they hold, and drops the senders that have been
// silent for a dedupe window.
func TestDedupeGaugesAndSenderSweep(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	net := transport.NewInproc(transport.InprocOptions{Clock: clk})
	defer net.Close()
	// No JanitorInterval: the test is the only one to tick.
	ls := newDedupeLeaf(t, net, server.Options{DedupeWindow: 10 * time.Second})
	gauges := func() (senders, remembered int64) {
		ls.JanitorTickForTest()
		return ls.Metrics().Gauge("dedupe_senders").Value(), ls.Metrics().Gauge("dedupe_remembered").Value()
	}

	probe := attachProbe(t, net, "probe")
	registerVia(t, net, "o1", geo.Pt(100, 100)) // stamped by its client, "owner-o1"
	for seq := uint64(1); seq <= 3; seq++ {
		callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(100+float64(seq), 100), seq))
	}
	if senders, remembered := gauges(); senders != 2 || remembered != 4 {
		t.Fatalf("dedupe_senders = %d, dedupe_remembered = %d; want 2 senders (owner-o1, probe) holding 1 + 3 replies", senders, remembered)
	}

	// Half a window on, the probe is heard from again and the registrant
	// is not; a full window after the registration only the probe is left.
	clk.Advance(6 * time.Second)
	callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(110, 100), 4))
	clk.Advance(5 * time.Second)
	if senders, remembered := gauges(); senders != 1 || remembered != 4 {
		t.Fatalf("dedupe_senders = %d, dedupe_remembered = %d; want the probe alone with its 4 replies", senders, remembered)
	}
	clk.Advance(10 * time.Second)
	if senders, remembered := gauges(); senders != 0 || remembered != 0 {
		t.Fatalf("dedupe_senders = %d, dedupe_remembered = %d a window after the last request; want 0, 0", senders, remembered)
	}
}

// --- helpers ---

// newDedupeLeaf deploys the quad hierarchy and returns the r.0 leaf.
func newDedupeLeaf(t *testing.T, net *transport.Inproc, opts server.Options) *server.Server {
	t.Helper()
	dep, err := hierarchy.Deploy(net, quadSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	leaf, ok := dep.Server("r.0")
	if !ok {
		t.Fatal("no r.0")
	}
	return leaf
}

// attachProbe attaches a bare node that only issues calls.
func attachProbe(t *testing.T, net *transport.Inproc, id msg.NodeID) transport.Node {
	t.Helper()
	nd, err := net.Attach(id, func(context.Context, msg.NodeID, msg.Message) (msg.Message, error) {
		return nil, errors.New("probe serves nothing")
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	return nd
}

// registerVia registers an object through a throwaway client. Visitor
// records are keyed by OID, so the probe node may update it afterwards.
func registerVia(t *testing.T, net *transport.Inproc, oid string, p geo.Point) {
	t.Helper()
	c, err := client.New(net, "owner-"+msg.NodeID(oid), "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Register(cctx, sightingAt(oid, p), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
}

func updateReq(oid string, p geo.Point, seq uint64) msg.UpdateReq {
	return msg.UpdateReq{S: sightingAt(oid, p), Seq: seq}
}

func callUpdate(t *testing.T, probe transport.Node, to msg.NodeID, req msg.UpdateReq) msg.UpdateRes {
	t.Helper()
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := probe.Call(cctx, to, req)
	if err != nil {
		t.Fatalf("update call: %v", err)
	}
	res, ok := resp.(msg.UpdateRes)
	if !ok {
		t.Fatalf("update reply = %T", resp)
	}
	return res
}
