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

// TestDedupeFloorEviction pins the eviction policy: a reply is held until
// a later request's floor passes its seq, and a duplicate below the floor
// is not applied — its sender had stopped waiting for it.
func TestDedupeFloorEviction(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	ls := newDedupeLeaf(t, net, server.Options{})
	counters := func() (local, deduped int64) {
		return ls.Metrics().Counter("updates_local").Value(), ls.Metrics().Counter("updates_deduped").Value()
	}

	probe := attachProbe(t, net, "probe")
	registerVia(t, net, "o1", geo.Pt(100, 100))

	// Seq 1 applied and remembered; a duplicate is answered from the
	// window, even one that would hand the object over if applied.
	callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(110, 100), 1))
	if res := callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(999, 999), 1)); res.Moved {
		t.Fatal("duplicate of an in-area update was applied as a handover")
	}
	if local, deduped := counters(); local != 1 || deduped != 1 {
		t.Fatalf("updates_local = %d, updates_deduped = %d; want 1, 1", local, deduped)
	}

	// Seq 2 goes out while seq 1 is still awaited: seq 1 stays held.
	req := updateReq("o1", geo.Pt(120, 100), 2)
	req.Floor = 1
	callUpdate(t, probe, ls.ID(), req)
	callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(999, 999), 1))
	if local, deduped := counters(); local != 2 || deduped != 2 {
		t.Fatalf("updates_local = %d, updates_deduped = %d; want 2, 2", local, deduped)
	}

	// Seq 3 says nothing below it is awaited: late copies of seqs 1 and 2
	// are refused unapplied.
	callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(130, 100), 3))
	for seq := uint64(1); seq <= 2; seq++ {
		late := updateReq("o1", geo.Pt(999, 999), seq)
		if _, err := probe.Call(ctx(t), ls.ID(), late); !errors.Is(err, core.ErrTimeout) {
			t.Fatalf("late seq %d below the floor: err = %v, want a timeout", seq, err)
		}
	}
	if local, deduped := counters(); local != 3 || deduped != 4 {
		t.Fatalf("updates_local = %d, updates_deduped = %d; want 3, 4", local, deduped)
	}
	resp, err := probe.Call(ctx(t), ls.ID(), msg.PosQueryReq{OID: "o1"})
	if err != nil {
		t.Fatal(err)
	}
	if pos := resp.(msg.PosQueryRes).LD.Pos; pos != geo.Pt(130, 100) {
		t.Fatalf("o1 at %v, want seq 3's (130, 100)", pos)
	}
}

// TestDedupeRetryAfterManyNewerRequests pins that a window is bounded by
// what its sender awaits, not by a slot count: a handover's reply is
// still answered from the window after 5 000 newer requests from the same
// sender, because the sender never stopped awaiting it.
func TestDedupeRetryAfterManyNewerRequests(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	ls := newDedupeLeaf(t, net, server.Options{})

	probe := attachProbe(t, net, "probe")
	registerVia(t, net, "o1", geo.Pt(100, 100))
	registerVia(t, net, "o2", geo.Pt(200, 200))

	first := updateReq("o1", geo.Pt(1200, 100), 1) // out of r.0: a handover
	if res := callUpdate(t, probe, ls.ID(), first); !res.Moved {
		t.Fatalf("handover reply = %+v, want Moved", res)
	}
	for seq := uint64(2); seq <= 5001; seq++ {
		req := updateReq("o2", geo.Pt(200+float64(seq%100), 200), seq)
		req.Floor = 1
		callUpdate(t, probe, ls.ID(), req)
	}
	before := ls.Metrics().Counter("updates_deduped").Value()
	if res := callUpdate(t, probe, ls.ID(), first); !res.Moved || res.NewAgent != "r.1" {
		t.Fatalf("retried handover reply = %+v, want the remembered Moved to r.1", res)
	}
	if got := ls.Metrics().Counter("updates_deduped").Value(); got != before+1 {
		t.Fatalf("updates_deduped = %d, want %d", got, before+1)
	}
}

// TestDedupeClientRestartSameID pins that a client restarted under the
// same node id is not answered from its previous incarnation's replies:
// its registration of another object is applied, and that object takes
// updates.
func TestDedupeClientRestartSameID(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	ls := newDedupeLeaf(t, net, server.Options{})

	register := func(oid string, p geo.Point) (*client.Client, *client.TrackedObject) {
		t.Helper()
		c, err := client.New(net, "dev", ls.ID(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := c.Register(ctx(t), sightingAt(oid, p), 10, 50, 3)
		if err != nil {
			t.Fatal(err)
		}
		return c, obj
	}
	c, first := register("o1", geo.Pt(100, 100))
	if err := first.Update(ctx(t), sightingAt("o1", geo.Pt(110, 100))); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c, second := register("o2", geo.Pt(300, 300))
	defer c.Close()
	if got := ls.Metrics().Counter("register_deduped").Value(); got != 0 {
		t.Fatalf("register_deduped = %d: the new incarnation was answered from the old one's replies", got)
	}
	if _, ok := ls.VisitorForTest("o2"); !ok {
		t.Fatal("o2 not registered")
	}
	if err := second.Update(ctx(t), sightingAt("o2", geo.Pt(310, 300))); err != nil {
		t.Fatalf("first update of o2: %v", err)
	}
}

// TestDedupeFloorAboveSeqRefused pins that a request whose floor is above
// its own seq is malformed: refused, and neither applied nor remembered.
// An update is refused to its call, a registration under its OpID.
func TestDedupeFloorAboveSeqRefused(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	ls := newDedupeLeaf(t, net, server.Options{})

	probe := attachProbe(t, net, "probe")
	registerVia(t, net, "o1", geo.Pt(100, 100))

	req := updateReq("o1", geo.Pt(110, 100), 2)
	req.Floor = 3
	if _, err := probe.Call(ctx(t), ls.ID(), req); !errors.Is(err, core.ErrBadRequest) {
		t.Fatalf("floor above seq: err = %v, want bad request", err)
	}
	if got := ls.Metrics().Counter("updates_local").Value(); got != 0 {
		t.Fatalf("updates_local = %d, want 0", got)
	}
	// The refused request left no floor behind: seq 2 is still new.
	callUpdate(t, probe, ls.ID(), updateReq("o1", geo.Pt(110, 100), 2))
	if got := ls.Metrics().Counter("updates_local").Value(); got != 1 {
		t.Fatalf("updates_local = %d, want 1", got)
	}

	// A registration so stamped is refused under its OpID, so that its
	// sender learns why at once, and nothing is registered.
	replies := make(chan msg.Message, 1)
	registrant, err := net.Attach("registrant", func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
		replies <- m
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer registrant.Close()
	ri := core.RegInfo{Registrant: "registrant", DesAcc: 10, MinAcc: 50, MaxSpeed: 3}
	bad := msg.RegisterReq{S: sightingAt("o2", geo.Pt(120, 100)), RegInfo: ri, Origin: msg.Origin{Node: "registrant", OpID: 7}, Seq: 2, Floor: 3}
	if err := registrant.Send(ls.ID(), bad); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-replies:
		if f, _ := m.(msg.RegisterFailed); f.OpID != 7 || !isRefusal(m, core.ErrBadRequest) {
			t.Fatalf("registration with its floor above its seq answered %+v, want a bad-request refusal of op 7", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no answer to the registration with its floor above its seq")
	}
	if n := ls.SightingCount(); n != 1 {
		t.Fatalf("%d sightings, want o1 alone", n)
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
	leaf := ls.dep.Servers["r.0"]
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
// replies for and the replies they hold, and drops the senders that have
// been silent for the idle time.
func TestDedupeGaugesAndSenderSweep(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	net := transport.NewInproc(transport.InprocOptions{Clock: clk})
	defer net.Close()
	idle := server.DedupeIdleForTest
	// No JanitorInterval: the test is the only one to tick.
	ls := newDedupeLeaf(t, net, server.Options{})
	gauges := func() (senders, remembered int64) {
		ls.JanitorTickForTest()
		return ls.Metrics().Gauge("dedupe_senders").Value(), ls.Metrics().Gauge("dedupe_remembered").Value()
	}

	probe := attachProbe(t, net, "probe")
	registerVia(t, net, "o1", geo.Pt(100, 100)) // stamped by its client, "owner-o1"
	// The probe keeps awaiting seq 1, so its window holds all its replies.
	update := func(seq uint64) {
		req := updateReq("o1", geo.Pt(100+float64(seq), 100), seq)
		req.Floor = 1
		callUpdate(t, probe, ls.ID(), req)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		update(seq)
	}
	if senders, remembered := gauges(); senders != 2 || remembered != 4 {
		t.Fatalf("dedupe_senders = %d, dedupe_remembered = %d; want 2 senders (owner-o1, probe) holding 1 + 3 replies", senders, remembered)
	}

	// Past half the idle time the probe is heard from again and the
	// registrant is not; past the idle time only the probe is left.
	clk.Advance(idle * 6 / 10)
	update(4)
	clk.Advance(idle / 2)
	if senders, remembered := gauges(); senders != 1 || remembered != 4 {
		t.Fatalf("dedupe_senders = %d, dedupe_remembered = %d; want the probe alone with its 4 replies", senders, remembered)
	}
	clk.Advance(idle)
	if senders, remembered := gauges(); senders != 0 || remembered != 0 {
		t.Fatalf("dedupe_senders = %d, dedupe_remembered = %d the idle time after the last request; want 0, 0", senders, remembered)
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
	leaf, ok := dep.Servers["r.0"]
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

// updateReq is a stamped update from a sender that awaits nothing older:
// its floor is its own seq.
func updateReq(oid string, p geo.Point, seq uint64) msg.UpdateReq {
	return msg.UpdateReq{S: sightingAt(oid, p), Seq: seq, Floor: seq}
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
