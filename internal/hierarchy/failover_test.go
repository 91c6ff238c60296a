package hierarchy_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
	"locsvc/internal/oracle"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// TestFailoverSoak extends the chaos soak to tiered, replicated leaves:
// every leaf runs with a hot standby mirroring it via WAL-tail streaming
// and run shipping, and the root health-checks the primaries. The soak
// kills one primary mid-flush under 20% datagram loss and asserts the
// full failover story:
//
//   - the root detects the dead primary and promotes its standby within
//     a bounded window (repl_failovers fires exactly once),
//   - every update acknowledged before the kill — the replication queue
//     was drained first — is queryable at the promoted standby: loss is
//     bounded by the unacked WAL tail, which the drain made empty,
//   - the dead primary restarts believing it is primary (epoch 1), is
//     fenced by the promoted peer's higher epoch, demotes to standby and
//     catches back up via snapshot + run fetch,
//   - clients bound to the old primary are redirected and keep updating,
//   - after healing, every object is found at its last confirmed position
//     and a whole-area range query is complete and non-partial,
//   - every answer received on the way is right (internal/oracle).
func TestFailoverSoak(t *testing.T) {
	const (
		dropRate    = 0.2
		callTimeout = 200 * time.Millisecond
		queryTO     = 500 * time.Millisecond
		cooldown    = 150 * time.Millisecond
		healthEvery = 100 * time.Millisecond
		shards      = 4
	)

	reg := metrics.NewRegistry()
	// Setup (deployment, registrations) runs lossless; the 20% loss is
	// switched on for the kill/failover/healing window and back off for
	// the final full-population oracle, keeping the soak's wall-clock
	// spent on the failure path instead of on retried setup traffic.
	loss := transport.NewLoss(0, 11)
	net := transport.NewInproc(transport.InprocOptions{
		FaultPlan:        loss.Plan,
		SweepInterval:    10 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  cooldown,
		Metrics:          reg,
	})
	defer net.Close()

	dir := t.TempDir()
	walDir := func(id string) string { return filepath.Join(dir, strings.ReplaceAll(id, "/", "_")) }
	// The per-shard memtable budget is floored at 4 KiB regardless of
	// MemtableBytes, so flushes need real volume: the victim's quarter is
	// seeded with enough filler objects below to push every shard past
	// the floor and keep runs shipping.
	tierCfg := func() *store.TierConfig {
		return &store.TierConfig{MemtableBytes: 1, MaxRuns: 3}
	}
	standbyOf := func(id string) string { return id + "~s" }

	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1500, 1500),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
	}
	base := server.Options{
		CallTimeout:     callTimeout,
		QueryTimeout:    queryTO,
		JanitorInterval: 20 * time.Millisecond,
	}
	leafOpts := func(id string, standby bool) (server.Options, error) {
		wal, err := store.OpenShardedWAL(walDir(id), shards)
		if err != nil {
			return server.Options{}, err
		}
		o := base
		o.SightingWAL = wal
		o.Tiering = tierCfg()
		if standby {
			o.ReplPeer = strings.TrimSuffix(id, "~s")
			o.ReplStandby = true
		} else {
			o.ReplPeer = standbyOf(id)
		}
		return o, nil
	}
	dep, err := hierarchy.DeployWith(net, spec, base, func(cfg store.ConfigRecord, o server.Options) (server.Options, error) {
		if cfg.IsLeaf() {
			return leafOpts(cfg.ID, false)
		}
		// The root supervises every leaf pair.
		o.Replicas = map[string]string{}
		o.ReplHealthInterval = healthEvery
		return o, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	rootArea := core.AreaFromRect(spec.RootArea)
	root := dep.Servers[dep.Root()]

	// The standbys live outside the tree: same service area and parent as
	// their primary, but not in the root's child list — queries only reach
	// one after a failover rebind.
	configFor := func(id msg.NodeID) store.ConfigRecord {
		for _, cfg := range dep.Configs {
			if msg.NodeID(cfg.ID) == id {
				return cfg
			}
		}
		t.Fatalf("no config for %s", id)
		return store.ConfigRecord{}
	}
	standbys := map[msg.NodeID]*server.Server{}
	configs := append([]store.ConfigRecord(nil), dep.Configs...)
	for _, leaf := range dep.Leaves() {
		cfg := configFor(leaf)
		cfg.ID = standbyOf(cfg.ID)
		configs = append(configs, cfg)
		opts, oerr := leafOpts(cfg.ID, true)
		if oerr != nil {
			t.Fatal(oerr)
		}
		srv, serr := server.New(cfg, rootArea, net, opts)
		if serr != nil {
			t.Fatal(serr)
		}
		standbys[leaf] = srv
		defer srv.Close()
	}
	// DeployWith started the root before the standbys existed; its monitor
	// snapshot of Replicas was empty, so restart the root with the pairs
	// filled in. (A real deployment starts standbys first.)
	rootCfg := configFor(dep.Root())
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	rootOpts := base
	rootOpts.Replicas = map[string]string{}
	for _, leaf := range dep.Leaves() {
		rootOpts.Replicas[string(leaf)] = standbyOf(string(leaf))
	}
	rootOpts.ReplHealthInterval = healthEvery
	root, err = server.New(rootCfg, rootArea, net, rootOpts)
	if err != nil {
		t.Fatal(err)
	}
	dep.Servers[dep.Root()] = root
	defer root.Close()
	// A promoted standby answers for its primary's area, so the truth
	// knows both under their own ids.
	truth := oracle.New(configs)

	// One client and one object per quarter; o0 lives on the leaf that
	// will be killed.
	retry := transport.RetryPolicy{
		MaxAttempts:   10,
		BaseBackoff:   20 * time.Millisecond,
		MaxBackoff:    150 * time.Millisecond,
		PerTryTimeout: 800 * time.Millisecond,
	}
	positions := map[string]geo.Point{
		"o0": geo.Pt(100, 100),
		"o1": geo.Pt(1200, 100),
		"o2": geo.Pt(100, 1200),
		"o3": geo.Pt(1200, 1200),
	}
	clients := map[string]*client.Client{}
	objects := map[string]*client.TrackedObject{}
	for oid, p := range positions {
		entry, ok := dep.LeafFor(p)
		if !ok {
			t.Fatalf("no leaf for %v", p)
		}
		c, cerr := client.New(net, msg.NodeID("owner-"+oid), entry, client.Options{
			Timeout: 15 * time.Second,
			Retry:   retry,
		})
		if cerr != nil {
			t.Fatal(cerr)
		}
		defer c.Close()
		obj, rerr := c.Register(soakCtx(t), sightingAt(oid, p), 10, 50, 3)
		if rerr != nil {
			t.Fatalf("register %s: %v", oid, rerr)
		}
		clients[oid] = c
		objects[oid] = obj
		truth.Track(obj)
	}
	// send sends an update of oid to p, which the truth holds in flight.
	send := func(oid string, p geo.Point) {
		t.Helper()
		truth.Sent(core.OID(oid), core.LocationDescriptor{Pos: p, Acc: objects[oid].OfferedAcc()})
		if err := objects[oid].Update(soakCtx(t), sightingAt(oid, p)); err != nil {
			t.Fatalf("update %s: %v", oid, err)
		}
	}
	update := func(oid string, p geo.Point) {
		t.Helper()
		send(oid, p)
		truth.Track(objects[oid])
		positions[oid] = p
	}
	// posQuery asks for oid's position through o's client and checks the
	// answer.
	posQuery := func(o string, oid core.OID) (core.LocationDescriptor, error) {
		t.Helper()
		ld, err := clients[o].PosQuery(soakCtx(t), oid)
		if cerr := truth.CheckPos(oid, ld, err); cerr != nil {
			t.Fatal(cerr)
		}
		return ld, err
	}

	victim := msg.NodeID("r.0")
	heir := standbys[victim]
	primary := dep.Servers[victim]

	// Seed the victim's quarter with a filler population big enough that
	// every sighting shard outgrows the floored memtable budget: the
	// janitor flushes runs and ships them while the stream keeps flowing.
	// The fillers double as the bounded-loss oracle — every one of them
	// is acked and drained before the kill, so every one must survive it.
	const fillers = 120
	fillPos := func(i int) geo.Point {
		return geo.Pt(float64(20+(i*13)%700), float64(20+(i*31)%700))
	}
	fillID := func(i int) core.OID { return core.OID(fmt.Sprintf("f%03d", i)) }
	fillClient, err := client.New(net, "owner-fill", victim, client.Options{
		Timeout: 15 * time.Second,
		Retry:   retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fillClient.Close()
	for i := 0; i < fillers; i++ {
		obj, rerr := fillClient.Register(soakCtx(t), sightingAt(string(fillID(i)), fillPos(i)), 10, 50, 3)
		if rerr != nil {
			t.Fatalf("register filler %d: %v", i, rerr)
		}
		truth.Track(obj)
	}
	for i := 0; i < 40; i++ {
		update("o0", geo.Pt(float64(50+i%600), float64(50+(i*7)%600)))
	}
	waitSoak(t, "victim to flush runs under churn", func() bool {
		return primary.Metrics().Gauge("sighting_runs").Value() > 0
	})
	waitSoak(t, "standby to install shipped runs", func() bool {
		return heir.Metrics().Counter("repl_runs_fetched").Value() > 0
	})

	// Drain the tail so "bounded loss = unacked WAL tail" means zero for
	// everything confirmed so far. The tee into the replication queue is
	// asynchronous (it rides the WAL writer's drain), so queue gauges
	// can read empty before the last update ever entered it; the only
	// honest barrier is the standby itself serving the final position.
	probe, err := net.Attach("probe", func(ctx context.Context, from msg.NodeID, m msg.Message) (msg.Message, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	final := geo.Pt(321, 123)
	update("o0", final)
	waitSoak(t, "standby to hold the last acked position before the kill", func() bool {
		// o0's shard stream draining says nothing about the fillers'
		// shards or the visitor stream: require the whole mirror.
		if heir.SightingCount() != primary.SightingCount() ||
			heir.VisitorCount() != primary.VisitorCount() {
			return false
		}
		pctx, pcancel := context.WithTimeout(context.Background(), time.Second)
		defer pcancel()
		res, perr := probe.Call(pctx, heir.ID(), msg.PosQueryDirect{OID: "o0"})
		if perr != nil {
			return false
		}
		pres, ok := res.(msg.PosQueryRes)
		return ok && pres.Found && pres.LD.Pos == final
	})

	// Kill the primary mid-flush, under 20% datagram loss: more churn is
	// in flight when the node goes dark (updates to it start timing out;
	// the kill races the janitor's flush loop by design), and from here
	// through healing every probe, promotion, redirect and query rides
	// the lossy network.
	loss.SetRate(dropRate)
	net.SetNodeDown(victim, true)

	// The root's health probes fail, the failover fires, and the heir
	// answers queries for the acked state. A posquery from another
	// quarter follows root → rebound child, so its success proves both
	// the promotion and the forwarding rebind.
	waitSoak(t, "root to promote the standby", func() bool {
		return root.Metrics().Counter("repl_failovers").Value() > 0
	})
	waitSoak(t, "promoted standby to serve the last acked position", func() bool {
		_, qerr := posQuery("o1", "o0")
		return qerr == nil
	})
	// The gauge follows the role on the heir's next janitor tick.
	waitSoak(t, "heir's repl_role gauge to read 1 (primary)", func() bool {
		return heir.Metrics().Gauge("repl_role").Value() == 1
	})

	// Crash the victim for real and restart it from its own WAL + runs,
	// still configured as a primary (it never learned of the takeover).
	// Its epoch-1 streams must be fenced by the heir, demoting it to
	// standby, after which it catches up from the heir's snapshot.
	net.SetNodeDown(victim, false)
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	reopts, err := leafOpts(string(victim), false)
	if err != nil {
		t.Fatal(err)
	}
	revived, err := server.New(configFor(victim), rootArea, net, reopts)
	if err != nil {
		t.Fatal(err)
	}
	dep.Servers[victim] = revived
	// The repl_role gauge starts at its zero value until the first
	// janitor tick, so ask the server itself: the DiagRes role flips to
	// standby only after the fence actually demoted it.
	waitSoak(t, "revived primary to be fenced into standby", func() bool {
		pctx, pcancel := context.WithTimeout(context.Background(), time.Second)
		defer pcancel()
		res, perr := probe.Call(pctx, revived.ID(), msg.DiagReq{})
		if perr != nil {
			return false
		}
		d, ok := res.(msg.DiagRes)
		return ok && d.Repl != nil && d.Repl.Role == "standby"
	})

	// The o0 client still points at the old primary: its next update is
	// redirected to the heir, which Update re-sends to and returns from
	// once it applied it, and writes keep flowing through the new primary
	// back to the demoted one.
	healed := geo.Pt(222, 333)
	update("o0", healed)
	waitSoak(t, "demoted primary to mirror post-failover writes", func() bool {
		_, qerr := posQuery("o1", "o0")
		return qerr == nil
	})

	// The lossy fault window must actually have exercised the retry
	// machinery before it ends.
	if reg.Counter("wire_retries").Value() == 0 {
		t.Error("wire_retries = 0, the fault window exercised nothing")
	}
	loss.SetRate(0)

	// After healing: every object at its last confirmed position, and a
	// whole-area range query complete and non-partial.
	for oid := range positions {
		update(oid, positions[oid].Add(geo.Pt(3, 3)))
	}
	// Bounded loss, spelled out: every filler was acked and the queue
	// was drained before the kill, so the promoted (and since demoted)
	// pair must still serve each one at its registration position.
	var oids []core.OID
	for oid := range positions {
		oids = append(oids, core.OID(oid))
	}
	for i := 0; i < fillers; i++ {
		oids = append(oids, fillID(i))
	}
	for _, oid := range oids {
		oracleBy := time.Now().Add(15 * time.Second)
		for {
			_, qerr := posQuery("o3", oid)
			if qerr == nil {
				break
			}
			if !errors.Is(qerr, core.ErrUnavailable) {
				t.Fatalf("final posquery %s: %v", oid, qerr)
			}
			if time.Now().After(oracleBy) {
				t.Fatalf("final posquery %s still unavailable after healing", oid)
			}
		}
	}
	wholeArea := core.AreaFromRect(geo.R(0, 0, 1500, 1500))
	waitSoak(t, "whole-area query to be complete and non-partial", func() bool {
		res, qerr := clients["o1"].RangeQueryFull(soakCtx(t), wholeArea, 100, 0.5)
		if qerr != nil {
			return false
		}
		if cerr := truth.CheckRange(wholeArea, 100, 0.5, res); cerr != nil {
			t.Fatal(cerr)
		}
		return !res.Partial
	})

	// Exactly one failover may have fired: the probe retries must keep
	// 20% loss from reading as dead primaries.
	if got := root.Metrics().Counter("repl_failovers").Value(); got != 1 {
		t.Errorf("repl_failovers = %d, want exactly 1 (spurious failover under loss)", got)
	}
	t.Logf("answers checked: %+v", truth.Checked())
}

// waitSoak polls cond with a soak-scale deadline.
func waitSoak(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		// Polls: the failover soak runs on the wall clock (ROADMAP direction 4).
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
