package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// Pair-level replication tests: two leaves wired as primary/standby on an
// in-process network, driven through the internal store surfaces so the
// protocol (WAL-tail streaming, snapshots, run shipping, fencing) is
// exercised without a hierarchy around it. The hierarchy-level failover
// soak lives in internal/hierarchy.

const replTestShards = 4

func replTestArea() core.Area { return core.AreaFromRect(geo.R(0, 0, 1000, 1000)) }

// newReplLeaf builds one half of a pair. tier == nil runs the plain
// WAL-backed store; otherwise the tiered one (runs land in the WAL dir).
func newReplLeaf(t *testing.T, net *transport.Inproc, id, peer string, standby bool, tier *store.TierConfig) *Server {
	t.Helper()
	wal, err := store.OpenShardedWAL(t.TempDir(), replTestShards)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		SightingWAL:     wal,
		ReplPeer:        peer,
		ReplStandby:     standby,
		JanitorInterval: 20 * time.Millisecond,
	}
	if tier != nil {
		opts.Tiering = tier
	}
	cfg := store.ConfigRecord{ID: id, SA: replTestArea()}
	s, err := New(cfg, replTestArea(), net, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		// Polls: replication signals nothing a test could wait on.
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func replSighting(i int) core.Sighting {
	return core.Sighting{
		OID:     core.OID(fmt.Sprintf("o%03d", i)),
		T:       time.Now(),
		Pos:     geo.Pt(float64(1+i%999), float64(1+(i*7)%999)),
		SensAcc: 5,
	}
}

// mirrored reports whether standby holds exactly the primary's n objects
// at the primary's positions.
func mirrored(primary, standby *Server, n int) bool {
	if standby.sightings.Len() != n {
		return false
	}
	for i := 0; i < n; i++ {
		id := core.OID(fmt.Sprintf("o%03d", i))
		want, ok := primary.sightings.Get(id)
		if !ok {
			return false
		}
		got, ok := standby.sightings.Get(id)
		if !ok || got.Pos != want.Pos || !got.T.Equal(want.T) {
			return false
		}
	}
	return true
}

func TestReplPairMirrorsWrites(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	a := newReplLeaf(t, net, "leafA", "leafB", false, nil)
	b := newReplLeaf(t, net, "leafB", "leafA", true, nil)

	const n = 120
	for i := 0; i < n; i++ {
		s := replSighting(i)
		if i%2 == 0 {
			a.pipe.Put(s)
			if err := a.sightings.PutRegistration(s.OID, store.Registration{OfferedAcc: 10, PathT: s.T}); err != nil {
				t.Fatal(err)
			}
		} else if err := a.register(s, core.RegInfo{DesAcc: 10, MinAcc: 50}, 10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.handleChangeAcc(msg.ChangeAccReq{OID: "o001", DesAcc: 30, MinAcc: 50}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "standby mirror of puts", func() bool {
		reg, ok := b.sightings.Registration("o001")
		return mirrored(a, b, n) && b.VisitorCount() == n && ok && reg.OfferedAcc == 30
	})
	if _, violations := b.CoveringEntriesForTest(); len(violations) > 0 {
		t.Fatalf("standby entries: %v", violations)
	}

	// Removals stream too.
	if _, ok := a.deregister("o000"); !ok {
		t.Fatal("o000 was not registered")
	}
	waitUntil(t, "standby mirror of removes", func() bool {
		_, ok := b.sightings.Get("o000")
		_, vok := b.sightings.Registration("o000")
		return !ok && !vok && b.sightings.Len() == n-1
	})

	if got := a.repl.role(); got != replRolePrimary {
		t.Errorf("a role = %s, want primary", got)
	}
	if got := b.repl.role(); got != replRoleStandby {
		t.Errorf("b role = %s, want standby", got)
	}
}

func TestReplStandbyBootstrapsFromSnapshot(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	a := newReplLeaf(t, net, "leafA", "leafB", false, nil)

	// The standby does not exist yet: the primary's senders retry into
	// the void while state accumulates.
	const n = 80
	for i := 0; i < n; i++ {
		a.pipe.Put(replSighting(i))
	}
	if err := a.sightings.PutRegistration("o000", store.Registration{OfferedAcc: 10}); err != nil {
		t.Fatal(err)
	}

	b := newReplLeaf(t, net, "leafB", "leafA", true, nil)
	waitUntil(t, "late-started standby to catch up", func() bool {
		return mirrored(a, b, n) && b.VisitorCount() == 1
	})
	if n, violations := b.CoveringEntriesForTest(); n != 1 || len(violations) > 0 {
		t.Fatalf("standby: %d annotated entries, violations %v", n, violations)
	}
	if got := b.repl.resyncs.Load(); got == 0 {
		t.Error("standby caught up without a snapshot resync")
	}
}

func TestReplPromoteFencesZombiePrimary(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	a := newReplLeaf(t, net, "leafA", "leafB", false, nil)
	b := newReplLeaf(t, net, "leafB", "leafA", true, nil)

	const n = 40
	for i := 0; i < n; i++ {
		a.pipe.Put(replSighting(i))
	}
	waitUntil(t, "standby in sync before promotion", func() bool { return mirrored(a, b, n) })

	// The parent's decision, minus the parent: promote the standby.
	res, err := b.handlePromote(msg.Promote{})
	if err != nil {
		t.Fatal(err)
	}
	epoch := res.(msg.PromoteRes).Epoch
	if epoch < 2 {
		t.Fatalf("promotion epoch = %d, want >= 2", epoch)
	}
	if b.repl.role() != replRolePrimary {
		t.Fatalf("standby did not take the primary role")
	}

	// A zombie's late append carries the old epoch: the new primary must
	// reject it without applying anything.
	stale := replSighting(n)
	ack, err := b.handleReplAppend(msg.ReplAppend{
		Epoch:    1,
		Stream:   b.sightings.ShardFor(stale.OID),
		FirstSeq: uint64(n + 1),
		Recs:     []msg.ReplRecord{{Op: msg.ReplSightingPut, Sightings: []core.Sighting{stale}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rack := ack.(msg.ReplAck); !rack.Fenced || rack.Epoch != epoch {
		t.Fatalf("stale append ack = %+v, want fenced at epoch %d", rack, epoch)
	}
	if _, ok := b.sightings.Get(stale.OID); ok {
		t.Error("fenced write leaked to the new primary")
	}
	if got := b.repl.fenced.Load(); got == 0 {
		t.Error("new primary counted no fenced appends")
	}

	// The zombie keeps writing; between its own fenced stream and the new
	// primary's reverse stream (higher epoch) it must end up a standby.
	a.pipe.Put(replSighting(n))
	waitUntil(t, "zombie to be fenced into standby", func() bool {
		// demoteTo counts the demotion after the store's standby mark.
		return a.repl.role() == replRoleStandby && a.met.Counter("repl_demotions").Value() > 0
	})
	fresh := core.Sighting{OID: "fresh", T: time.Now(), Pos: geo.Pt(500, 500), SensAcc: 5}
	b.pipe.Put(fresh)
	waitUntil(t, "reversed stream to heal the old primary", func() bool {
		got, ok := a.sightings.Get("fresh")
		return ok && got.Pos == fresh.Pos
	})

	// A demoted leaf redirects update traffic to its peer.
	probe, err := net.Attach("probe", func(ctx context.Context, from msg.NodeID, m msg.Message) (msg.Message, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ures, err := probe.Call(ctx, "leafA", msg.UpdateReq{S: replSighting(1), Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if moved := ures.(msg.UpdateRes); !moved.Moved || moved.NewAgent != "leafB" {
		t.Errorf("standby update reply = %+v, want redirect to leafB", moved)
	}
}

func TestReplRunShippingMirrorsTier(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	tier := func() *store.TierConfig {
		return &store.TierConfig{MemtableBytes: 8 << 10, MaxRuns: 3}
	}
	a := newReplLeaf(t, net, "leafA", "leafB", false, tier())
	b := newReplLeaf(t, net, "leafB", "leafA", true, tier())

	sdbA := a.sightings
	sdbB := b.sightings

	// Enough volume that the janitor's MaintainTiers flushes several
	// memtables into runs (and likely compacts).
	const n = 600
	for i := 0; i < n; i++ {
		a.pipe.Put(replSighting(i))
	}
	waitUntil(t, "primary to flush runs", func() bool {
		return sdbA.TierStats().Runs > 0
	})
	waitUntil(t, "standby to install the primary's runs", func() bool {
		sa, sb := sdbA.TierStats(), sdbB.TierStats()
		return sb.Runs == sa.Runs && mirrored(a, b, n)
	})
	if got := b.repl.runsInstalled.Load(); got == 0 {
		t.Error("standby installed runs without fetching any")
	}

	// The mirror must hold through a primary-side compaction as well.
	if err := sdbA.MaintainTiers(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "standby to track post-compaction run list", func() bool {
		sa, sb := sdbA.TierStats(), sdbB.TierStats()
		return sb.Runs == sa.Runs && sb.DiskLive == sa.DiskLive && mirrored(a, b, n)
	})
}

// TestReplCloseUnderLoad is the shutdown-ordering regression test: both
// halves of a churning tiered pair close while writers hammer the primary
// and replication applies, run fetches and flushes are in flight. Close
// must drain every goroutine before the WAL and tier manifests go away —
// a mis-ordered teardown shows up here as a deadlock (test timeout), a
// race-detector report, or a panic on a closed WAL.
func TestReplCloseUnderLoad(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	tier := func() *store.TierConfig {
		return &store.TierConfig{MemtableBytes: 8 << 10, MaxRuns: 2}
	}
	a := newReplLeaf(t, net, "leafA", "leafB", false, tier())
	b := newReplLeaf(t, net, "leafB", "leafA", true, tier())

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a.pipe.Put(replSighting(w*10000 + i%500))
			}
		}(w)
	}
	// Let flushes, run shipping and the streams churn — until the standby
	// has installed a shipped run — before pulling the plug with the
	// writers still running.
	waitUntil(t, "replication churn before close", func() bool {
		return b.sightings.Len() > 0 && b.repl.runsInstalled.Load() > 0
	})

	closed := make(chan struct{})
	go func() {
		b.Close() // standby first: applies and fetches are mid-flight
		a.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked under load")
	}
	close(stop)
	writers.Wait()
}

// TestStandbyRedirectAppliedByPrimary: a client whose handle still names a
// leaf that has since become the standby gets the standby's redirect, which
// applies nothing; Update rebinds to the primary, re-sends the same update
// there within its retry budget and returns nil only once the primary has
// applied it. Nothing on the manual clock moves: no retry waits for a timer.
func TestStandbyRedirectAppliedByPrimary(t *testing.T) {
	clk := clock.NewManual(time.Now())
	// Replication is not under test: no stream record reaches either leaf,
	// so whatever a leaf holds it applied itself.
	net := transport.NewInproc(transport.InprocOptions{Clock: clk, FaultPlan: func(_, _ msg.NodeID, env msg.Envelope) transport.Fault {
		_, repl := env.Msg.(msg.ReplAppend)
		return transport.Fault{Drop: repl}
	}})
	defer net.Close()
	a := newReplLeaf(t, net, "leafA", "leafB", false, nil)
	b := newReplLeaf(t, net, "leafB", "leafA", true, nil)
	c, err := client.New(net, "owner", "leafA", client.Options{Retry: transport.RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := replSighting(1)
	obj, err := c.Register(context.Background(), s, 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}

	// The pair swaps roles, and the new primary holds the object (its
	// replication is not under test here).
	a.repl.demoteTo(2)
	b.repl.promote(2)
	reg, ok := a.sightings.Registration(s.OID)
	if !ok {
		t.Fatal("registration missing on the old primary")
	}
	if _, err := b.sightings.Register(s, reg); err != nil {
		t.Fatal(err)
	}

	moved := s
	moved.Pos, moved.T = geo.Pt(500, 600), s.T.Add(time.Second)
	if err := obj.Update(context.Background(), moved); err != nil {
		t.Fatalf("Update through the standby: %v", err)
	}
	if got, ok := b.sightings.Get(s.OID); !ok || got.Pos != moved.Pos {
		t.Errorf("primary holds %v (%v), want %v", got.Pos, ok, moved.Pos)
	}
	if got, _ := a.sightings.Get(s.OID); got.Pos == moved.Pos {
		t.Error("the standby applied the update it redirected")
	}
	if obj.Agent() != "leafB" || obj.LastSent().Pos != moved.Pos || obj.OfferedAcc() != reg.OfferedAcc {
		t.Errorf("handle: agent %s, last sent %v, offered %v; want leafB, %v, %v",
			obj.Agent(), obj.LastSent().Pos, obj.OfferedAcc(), moved.Pos, reg.OfferedAcc)
	}

	// With no attempt to spare, a redirect is an error, not an applied
	// update; the handle is rebound all the same.
	one, err := client.New(net, "owner2", "leafB", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	s2 := replSighting(2)
	obj2, err := one.Register(context.Background(), s2, 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	b.repl.demoteTo(3)
	a.repl.promote(3)
	moved2 := s2
	moved2.Pos, moved2.T = geo.Pt(700, 100), s2.T.Add(time.Second)
	if err := obj2.Update(context.Background(), moved2); !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("Update redirected with no attempt left = %v, want ErrUnavailable", err)
	}
	if obj2.Agent() != "leafA" || obj2.LastSent().Pos == moved2.Pos {
		t.Errorf("handle after a spent redirect: agent %s, last sent %v; want leafA and the registration position", obj2.Agent(), obj2.LastSent().Pos)
	}
}
