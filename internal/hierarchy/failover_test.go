package hierarchy_test

import (
	"context"
	"errors"
	"fmt"
	"os"
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
	)

	reg := metrics.NewRegistry()
	// Setup (deployment, registrations) runs lossless; the 20% loss is
	// switched on for the kill/failover/healing window and back off for
	// the final full-population oracle, keeping the soak's wall-clock
	// spent on the failure path instead of on retried setup traffic.
	loss := transport.NewLoss(0, 11)
	down := transport.NewNodesDown(loss.Plan)
	net := transport.NewInproc(transport.InprocOptions{
		FaultPlan:        down.Plan,
		SweepInterval:    10 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  cooldown,
		Metrics:          reg,
	})
	defer net.Close()

	// The per-shard memtable budget is floored at 4 KiB regardless of
	// MemtableBytes, so flushes need real volume: the victim's quarter is
	// seeded with enough filler objects below to push every shard past
	// the floor and keep runs shipping.
	tree := deployFailoverTree(t, net, t.TempDir(), server.Options{
		CallTimeout:     callTimeout,
		QueryTimeout:    queryTO,
		JanitorInterval: 20 * time.Millisecond,
	}, store.TierConfig{MemtableBytes: 1, MaxRuns: 3}, healthEvery)
	defer tree.close()
	dep, standbys := tree.dep, tree.standbys
	root := dep.Servers[dep.Root()]
	// A promoted standby answers for its primary's area, so the truth
	// knows both under their own ids.
	truth := oracle.New(tree.configs)

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
	// everything confirmed so far. Shipping the replication queue is
	// asynchronous, so queue gauges can read empty while the standby
	// has not yet applied the last update; the only honest barrier is the
	// standby itself serving the final position.
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
	down.SetNodeDown(victim, true)

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
	down.SetNodeDown(victim, false)
	revived, err := tree.restart(victim, nil)
	if err != nil {
		t.Fatal(err)
	}
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

// failoverTree is the tiered 2×2 tree of the failover soak and
// BenchmarkLeafFailover. Every leaf keeps its registration log, a
// four-shard sighting log and its runs under its own name in one
// directory, so a leaf restarts from that directory alone. With standbys,
// every leaf has a hot standby mirroring it, outside the tree — same area
// and parent, not in the root's child list — and the root's health
// monitor promotes it when its primary stops answering.
type failoverTree struct {
	dep      *hierarchy.Deployment
	net      transport.Network
	rootArea core.Area
	dir      string
	// configs are the tree's records and the standbys'.
	configs  []store.ConfigRecord
	standbys map[msg.NodeID]*server.Server
	// leafOpts opens id's logs under dir and returns the options a leaf
	// or a standby of the tree starts with.
	leafOpts func(id string, standby bool) (server.Options, error)
	// sightingLogs is every primary leaf's sighting log, by leaf.
	sightingLogs map[msg.NodeID]*store.ShardedWAL
}

func standbyOf(id string) string { return id + "~s" }

// deployFailoverTree starts the tree on net with its logs under dir: base
// applies to every server, tier to every leaf. A positive healthEvery
// gives every leaf a standby and the root a monitor probing each primary
// at that cadence.
func deployFailoverTree(tb testing.TB, net transport.Network, dir string, base server.Options, tier store.TierConfig, healthEvery time.Duration) *failoverTree {
	tb.Helper()
	const shards = 4
	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1500, 1500),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
	}
	replicated := healthEvery > 0
	ft := &failoverTree{
		net:          net,
		rootArea:     core.AreaFromRect(spec.RootArea),
		dir:          dir,
		standbys:     map[msg.NodeID]*server.Server{},
		sightingLogs: map[msg.NodeID]*store.ShardedWAL{},
	}
	ft.leafOpts = func(id string, standby bool) (server.Options, error) {
		vw, err := store.OpenFileWAL(filepath.Join(dir, id+"-visitors.wal"))
		if err != nil {
			return server.Options{}, err
		}
		sw, err := store.OpenShardedWAL(filepath.Join(dir, id+"-sightings"), shards)
		if err != nil {
			vw.Close()
			return server.Options{}, err
		}
		o := base
		o.WAL, o.SightingWAL = vw, sw
		tc := tier
		o.Tiering = &tc
		switch {
		case standby:
			o.ReplPeer = strings.TrimSuffix(id, "~s")
			o.ReplStandby = true
		case replicated:
			o.ReplPeer = standbyOf(id)
		}
		if !standby {
			ft.sightingLogs[msg.NodeID(id)] = sw
		}
		return o, nil
	}
	dep, err := hierarchy.DeployWith(net, spec, base, func(cfg store.ConfigRecord, o server.Options) (server.Options, error) {
		if cfg.IsLeaf() {
			return ft.leafOpts(cfg.ID, false)
		}
		if replicated {
			o.Replicas = make(map[string]string, len(cfg.Children))
			for _, ch := range cfg.Children {
				o.Replicas[ch.ID] = standbyOf(ch.ID)
			}
			o.ReplHealthInterval = healthEvery
		}
		return o, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	ft.dep = dep
	ft.configs = append([]store.ConfigRecord(nil), dep.Configs...)
	if !replicated {
		return ft
	}
	for _, leaf := range dep.Leaves() {
		cfg := ft.configFor(leaf)
		cfg.ID = standbyOf(cfg.ID)
		ft.configs = append(ft.configs, cfg)
		opts, err := ft.leafOpts(cfg.ID, true)
		if err != nil {
			ft.close()
			tb.Fatal(err)
		}
		srv, err := server.New(cfg, ft.rootArea, net, opts)
		if err != nil {
			opts.WAL.Close()
			opts.SightingWAL.Close()
			ft.close()
			tb.Fatal(err)
		}
		ft.standbys[leaf] = srv
	}
	return ft
}

func (ft *failoverTree) configFor(id msg.NodeID) store.ConfigRecord {
	for _, cfg := range ft.dep.Configs {
		if msg.NodeID(cfg.ID) == id {
			return cfg
		}
	}
	panic("no config for " + id)
}

// restart closes leaf id and opens it again from its logs, configured as a
// primary, in the tree's place. A non-nil files runs in between, with the
// leaf's files closed.
func (ft *failoverTree) restart(id msg.NodeID, files func() error) (*server.Server, error) {
	if err := ft.dep.Servers[id].Close(); err != nil {
		return nil, err
	}
	if files != nil {
		if err := files(); err != nil {
			return nil, err
		}
	}
	opts, err := ft.leafOpts(string(id), false)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(ft.configFor(id), ft.rootArea, ft.net, opts)
	if err != nil {
		opts.WAL.Close()
		opts.SightingWAL.Close()
		return nil, err
	}
	ft.dep.Servers[id] = srv
	return srv, nil
}

// crashImage copies leaf id's files as they stand, which is what a crash
// of its process would leave on disk: its registration log, sighting log
// and runs. The returned function puts that image back in their place.
func (ft *failoverTree) crashImage(id msg.NodeID) (restore func() error, err error) {
	visitors := filepath.Join(ft.dir, string(id)+"-visitors.wal")
	sightings := filepath.Join(ft.dir, string(id)+"-sightings")
	image := map[string][]byte{}
	if image[visitors], err = os.ReadFile(visitors); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(sightings)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := filepath.Join(sightings, e.Name())
		if image[name], err = os.ReadFile(name); err != nil {
			return nil, err
		}
	}
	return func() error {
		if err := os.RemoveAll(sightings); err != nil {
			return err
		}
		if err := os.MkdirAll(sightings, 0o755); err != nil {
			return err
		}
		for name, data := range image {
			if err := os.WriteFile(name, data, 0o644); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (ft *failoverTree) close() {
	for _, s := range ft.standbys {
		s.Close()
	}
	ft.dep.Close()
}

// The leaf-failover benchmark's load and settings. The fleet is spread
// over the four quarters. The root probes each primary every
// failoverProbe and declares it dead after three failed probes; that
// interval and count, the servers' 5 s call and query timeouts and the
// transport's breakers (open after three timeouts, 1 s cooldown) are
// lsd's defaults, so the windows are those of a deployment that sets none
// of them.
const (
	failoverFleet  = 96
	failoverRounds = 5
	failoverProbe  = 500 * time.Millisecond
)

// failoverTier tiers every leaf's store, as Table F's tree did. The fleet
// never leaves the memtables: about six objects a shard stay far below the
// store's 4 KiB floor on a shard's share, so no run is flushed, shipped
// to a standby or read back by a restart.
var failoverTier = store.TierConfig{MemtableBytes: 64 << 10, MaxRuns: 4}

// fleetPos is object i's position in update round r: quarter i mod 4, two
// metres further east each round, so every round's position differs from
// the registration's and from every earlier round's.
func fleetPos(i, r int) geo.Point {
	qx, qy := float64(i%2), float64((i/2)%2)
	return geo.Pt(100+qx*750+float64(i%30)+float64(r)*2, 100+qy*750+float64((i/30)%30))
}

// failoverArm is one way BenchmarkLeafFailover loses r.0.
type failoverArm struct {
	name string
	// standby gives every leaf a hot standby, which the root's monitor
	// promotes after three failed probes. Without, r.0 restarts after the
	// same detection delay from its files as they stood at the kill.
	standby bool
	// settled kills r.0 only once its standby, or its sighting log, holds
	// every acknowledged update, and measures the outage window. An
	// unsettled arm kills it right after the last acknowledgement and
	// measures only what the kill loses.
	settled bool
}

// BenchmarkLeafFailover measures what a client sees when a leaf dies, with
// hot standbys and without. Every arm runs failoverTree's tiered 2×2 tree,
// registers the fleet, waits until every forwarding path has reached the
// root (and a standby holds every registration), updates the fleet and
// kills r.0 with SetNodeDown. The arms:
//
//   - standby and restart: settled;
//   - standby-unsettled and restart-unsettled: unsettled. A standby that
//     never received an object's last update never answers it correctly,
//     nor does a restart from a log that never held it, so these have no
//     window.
//
// It reports the means over its iterations of
//
//   - failover.unavailable_ms, settled arms: from the kill to the first
//     correct position query of an r.0 object through a live entry leaf;
//   - failover.ops_failed, settled arms: the queries in that window that
//     did not return it. Each waits up to 50 ms, and the next follows
//     5 ms after;
//   - failover.acked_lost, the r.0 objects whose last acknowledged
//     position the healed tree does not return (oracle.CheckPos). On an
//     unsettled arm that is what the kill lost; on a settled one, what
//     the promotion or the restart lost of what the standby or the log
//     already held;
//   - repl.steady_overhead_pct, standby only: how much longer the fleet's
//     update rounds take with every leaf mirrored, over a network with
//     200 µs per hop.
//
// It runs on the wall clock: the time a client waits is what it measures.
// Each iteration is a whole run; -benchtime 1x -count 5 gives five.
func BenchmarkLeafFailover(b *testing.B) {
	for _, arm := range []failoverArm{
		{name: "standby", standby: true, settled: true},
		{name: "standby-unsettled", standby: true},
		{name: "restart", settled: true},
		{name: "restart-unsettled"},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var unavailable time.Duration
			var failed, lost int
			var overhead float64
			mirrorCost := arm.standby && arm.settled
			for i := 0; i < b.N; i++ {
				u, f, l := leafFailover(b, arm)
				unavailable, failed, lost = unavailable+u, failed+f, lost+l
				if mirrorCost {
					base, mirrored := steadyRounds(b, false), steadyRounds(b, true)
					overhead += (mirrored.Seconds() - base.Seconds()) / base.Seconds() * 100
				}
			}
			n := float64(b.N)
			if arm.settled {
				b.ReportMetric(unavailable.Seconds()*1000/n, "failover.unavailable_ms")
				b.ReportMetric(float64(failed)/n, "failover.ops_failed")
			}
			b.ReportMetric(float64(lost)/n, "failover.acked_lost")
			if mirrorCost {
				b.ReportMetric(overhead/n, "repl.steady_overhead_pct")
			}
		})
	}
}

// registerFleet registers the fleet through c, telling truth.
func registerFleet(b *testing.B, c *client.Client, truth *oracle.Oracle) []*client.TrackedObject {
	b.Helper()
	objs := make([]*client.TrackedObject, failoverFleet)
	for i := range objs {
		obj, err := c.Register(context.Background(), sightingAt(fmt.Sprintf("f-%d", i), fleetPos(i, 0)), 10, 100, 3)
		if err != nil {
			b.Fatal(err)
		}
		truth.Track(obj)
		objs[i] = obj
	}
	return objs
}

// updateFleet runs failoverRounds rounds of updates to the fleet, one
// update at a time, telling truth about every acknowledgement.
func updateFleet(b *testing.B, objs []*client.TrackedObject, truth *oracle.Oracle) {
	b.Helper()
	for r := 1; r <= failoverRounds; r++ {
		for i, obj := range objs {
			if err := obj.Update(context.Background(), sightingAt(string(obj.OID()), fleetPos(i, r))); err != nil {
				b.Fatal(err)
			}
			truth.Track(obj)
		}
	}
}

// steadyRounds times the fleet's update rounds on the tree with or without
// standbys, over a network with 200 µs per hop (Table F's phase 1).
func steadyRounds(b *testing.B, standby bool) time.Duration {
	net := transport.NewInproc(transport.InprocOptions{
		Latency: func(_, _ msg.NodeID) time.Duration { return 200 * time.Microsecond },
	})
	defer net.Close()
	health := time.Duration(0)
	if standby {
		health = failoverProbe
	}
	tree := deployFailoverTree(b, net, b.TempDir(), server.Options{JanitorInterval: 50 * time.Millisecond}, failoverTier, health)
	defer tree.close()
	c, err := client.New(net, "fleet", tree.dep.Leaves()[0], client.Options{Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	truth := oracle.New(tree.configs)
	objs := registerFleet(b, c, truth)
	start := time.Now()
	updateFleet(b, objs, truth)
	return time.Since(start)
}

// leafFailover runs one kill of r.0 and returns the r.0 objects the healed
// tree does not return at their last acknowledged position and, on a
// settled arm, the time until a query through r.1 finds an r.0 object
// where it was last acknowledged and the queries that failed inside it.
func leafFailover(b *testing.B, arm failoverArm) (unavailable time.Duration, failed, lost int) {
	down := transport.NewNodesDown(nil)
	net := transport.NewInproc(transport.InprocOptions{
		FaultPlan:        down.Plan,
		SweepInterval:    10 * time.Millisecond,
		BreakerThreshold: 3,
	})
	defer net.Close()
	health := time.Duration(0)
	if arm.standby {
		health = failoverProbe
	}
	tree := deployFailoverTree(b, net, b.TempDir(), server.Options{JanitorInterval: 50 * time.Millisecond}, failoverTier, health)
	defer tree.close()
	victim, _ := tree.dep.LeafFor(fleetPos(0, 0))
	entry, _ := tree.dep.LeafFor(fleetPos(1, 0))
	c, err := client.New(net, "fleet", entry, client.Options{
		Timeout: 10 * time.Second,
		Retry:   transport.RetryPolicy{MaxAttempts: 4, BaseBackoff: 20 * time.Millisecond, MaxBackoff: time.Second},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	truth := oracle.New(tree.configs)
	var onVictim []core.OID
	var victimIdx []int
	for i := 0; i < failoverFleet; i++ {
		if leaf, _ := tree.dep.LeafFor(fleetPos(i, 0)); leaf == victim {
			onVictim = append(onVictim, core.OID(fmt.Sprintf("f-%d", i)))
			victimIdx = append(victimIdx, i)
		}
	}
	probe, err := net.Attach("probe", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer probe.Close()
	// settle polls, since nothing signals either, until every forwarding
	// path has reached the root and, with mirrored, r.0's standby serves
	// every r.0 object at its round-r position. A path still climbing
	// leaves its object unreachable until the leaf sends it again, which
	// would measure that lag rather than the outage.
	settle := func(r int, mirrored bool) {
		caughtUp := func() bool {
			if tree.dep.RootVisitorCount() < failoverFleet {
				return false
			}
			if !mirrored {
				return true
			}
			for k, oid := range onVictim {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				res, err := probe.Call(ctx, tree.standbys[victim].ID(), msg.PosQueryDirect{OID: oid})
				cancel()
				if pres, ok := res.(msg.PosQueryRes); err != nil || !ok || pres.LD.Pos != fleetPos(victimIdx[k], r) {
					return false
				}
			}
			return true
		}
		for deadline := time.Now().Add(30 * time.Second); !caughtUp(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				b.Fatalf("paths or the standby of %s never caught up with round %d", victim, r)
			}
		}
	}
	// The update rounds start from a standby that holds every
	// registration, so an unsettled kill loses what the replication
	// stream lags behind the acknowledged updates, not the tree's
	// start-up.
	objs := registerFleet(b, c, truth)
	settle(0, arm.standby)
	updateFleet(b, objs, truth)
	settle(failoverRounds, arm.standby && arm.settled)
	if arm.settled && !arm.standby {
		if err := tree.sightingLogs[victim].Flush(); err != nil {
			b.Fatal(err)
		}
	}

	// answer asks for oid through the entry leaf, waiting at most wait. It
	// returns nil if oid was found where it was last acknowledged, and
	// otherwise why not; answered reports whether the tree gave an answer
	// at all.
	answer := func(oid core.OID, wait time.Duration) (answered bool, err error) {
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		defer cancel()
		ld, err := c.PosQuery(ctx, oid)
		if err != nil && !errors.Is(err, core.ErrNotFound) {
			return false, fmt.Errorf("position query of %s: %w", oid, err)
		}
		return true, truth.CheckPos(oid, ld, err)
	}

	down.SetNodeDown(victim, true)
	killed := time.Now()
	restarted := make(chan error, 1)
	if !arm.standby {
		image, err := tree.crashImage(victim)
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			time.Sleep(3 * failoverProbe)
			_, err := tree.restart(victim, image)
			down.SetNodeDown(victim, false)
			restarted <- err
		}()
	}
	if arm.settled {
		for {
			_, err := answer(onVictim[0], 50*time.Millisecond)
			if err == nil {
				break
			}
			failed++
			if time.Since(killed) > 30*time.Second {
				b.Fatalf("no correct answer %v after killing %s: %v", time.Since(killed), victim, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		unavailable = time.Since(killed)
	}
	if !arm.standby {
		if err := <-restarted; err != nil {
			b.Fatal(err)
		}
	}

	// Every r.0 object, asked until the healed tree answers: an object
	// still unavailable after 10 s counts as lost too.
	for _, oid := range onVictim {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			answered, err := answer(oid, time.Second)
			if answered || time.Now().After(deadline) {
				if err != nil {
					b.Logf("lost: %v", err)
					lost++
				}
				break
			}
		}
	}
	return unavailable, failed, lost
}
