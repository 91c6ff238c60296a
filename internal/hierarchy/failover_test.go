package hierarchy_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// TestLeafRestartSoak extends the chaos soak to a killed tiered leaf: the
// soak kills r.0 under 20% datagram loss while its janitor flushes, and
// restarts it from its own files as they stood at the kill. It asserts:
//
//   - while r.0 is dark, every answer from the live quarters is right
//     (internal/oracle): complete, or Partial and missing only what lies
//     behind a server it names — r.0, or a live leaf whose leg the loss
//     cut;
//   - after the restart, o0 and every filler come back at their last
//     acknowledged position: no acknowledged update is lost, because each
//     was in r.0's sighting log before it was acknowledged;
//   - after healing, a whole-area range query is complete and not
//     Partial, and the lossy window exercised the retries.
func TestLeafRestartSoak(t *testing.T) {
	const (
		dropRate    = 0.2
		callTimeout = 200 * time.Millisecond
		queryTO     = 500 * time.Millisecond
		cooldown    = 150 * time.Millisecond
	)

	reg := metrics.NewRegistry()
	// Setup (deployment, registrations) runs lossless; the 20% loss is
	// switched on for the kill, the dark window and the healing, and back
	// off for the final full-population oracle, keeping the soak's wall
	// clock spent on the failure path instead of on retried setup traffic.
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
	// the floor and keep the janitor flushing.
	tree := deployFailoverTree(t, net, t.TempDir(), server.Options{
		CallTimeout:     callTimeout,
		QueryTimeout:    queryTO,
		JanitorInterval: 20 * time.Millisecond,
	}, store.TierConfig{MemtableBytes: 1, MaxRuns: 3})
	defer tree.dep.Close()
	dep := tree.dep
	truth := oracle.New(dep.Configs)

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
	update := func(oid string, p geo.Point) {
		t.Helper()
		truth.Sent(core.OID(oid), core.LocationDescriptor{Pos: p, Acc: objects[oid].OfferedAcc()})
		if err := objects[oid].Update(soakCtx(t), sightingAt(oid, p)); err != nil {
			t.Fatalf("update %s: %v", oid, err)
		}
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
	wholeArea := core.AreaFromRect(geo.R(0, 0, 1500, 1500))
	// rangeQuery asks for the whole area through o's client, checks the
	// answer and reports whether it was complete.
	rangeQuery := func(o string) bool {
		t.Helper()
		res, qerr := clients[o].RangeQueryFull(soakCtx(t), wholeArea, 100, 0.5)
		if qerr != nil {
			return false
		}
		if cerr := truth.CheckRange(wholeArea, 100, 0.5, res); cerr != nil {
			t.Fatal(cerr)
		}
		return !res.Partial
	}

	victim := msg.NodeID("r.0")
	primary := dep.Servers[victim]

	// Seed the victim's quarter with a filler population big enough that
	// every sighting shard outgrows the floored memtable budget, so the
	// janitor flushes runs while o0 churns. Every filler is acknowledged
	// before the kill, so every one must survive it.
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
	// The forwarding paths must all have reached the root: the restart
	// replays r.0's registrations, not the path messages it had in flight.
	waitSoak(t, "every forwarding path at the root", func() bool {
		return dep.RootVisitorCount() == len(positions)+fillers
	})
	// The last update before the kill is acknowledged by r.0 alone, and
	// the kill follows at once: only the sighting log can bring it back.
	update("o0", geo.Pt(321, 123))

	// Kill r.0 under 20% datagram loss and take what a crash would leave
	// on disk. Its janitor may be flushing the churn above as it dies.
	loss.SetRate(dropRate)
	down.SetNodeDown(victim, true)
	image, err := tree.crashImage(victim)
	if err != nil {
		t.Fatal(err)
	}

	// While r.0 is dark the live quarters keep working, and every answer
	// they give is right: updates land, position queries answer or say
	// they cannot, and a whole-area range query is complete or an honest
	// Partial.
	for _, oid := range []string{"o1", "o2", "o3"} {
		update(oid, positions[oid].Add(geo.Pt(1, 1)))
		if _, qerr := posQuery("o3", core.OID(oid)); qerr != nil && !errors.Is(qerr, core.ErrUnavailable) {
			t.Fatalf("posquery %s with r.0 dark: %v", oid, qerr)
		}
	}
	posQuery("o1", "o0")
	rangeQuery("o2")

	// Restart r.0 from the image, in its place in the tree.
	revived, err := tree.restart(victim, image)
	if err != nil {
		t.Fatal(err)
	}
	down.SetNodeDown(victim, false)

	// The lossy window must actually have exercised the retry machinery
	// before it ends.
	if reg.Counter("wire_retries").Value() == 0 {
		t.Error("wire_retries = 0, the fault window exercised nothing")
	}
	loss.SetRate(0)

	// Bounded loss is no loss: o0 and every filler come back at their last
	// acknowledged position, asked through another quarter until the
	// healed tree answers.
	oids := []core.OID{"o0"}
	for i := 0; i < fillers; i++ {
		oids = append(oids, fillID(i))
	}
	found := func(oid core.OID) {
		t.Helper()
		by := time.Now().Add(15 * time.Second)
		for {
			_, qerr := posQuery("o3", oid)
			if qerr == nil {
				return
			}
			if !errors.Is(qerr, core.ErrUnavailable) {
				t.Fatalf("posquery %s after the restart: %v", oid, qerr)
			}
			if time.Now().After(by) {
				t.Fatalf("posquery %s still unavailable after the restart", oid)
			}
		}
	}
	for _, oid := range oids {
		found(oid)
	}
	if n := revived.VisitorCount(); n != fillers+1 {
		t.Errorf("restarted r.0 holds %d registrations, want %d", n, fillers+1)
	}

	// After healing: every object takes an update, and a whole-area range
	// query is complete and not Partial.
	for oid := range positions {
		update(oid, positions[oid].Add(geo.Pt(3, 3)))
		found(core.OID(oid))
	}
	waitSoak(t, "whole-area query to be complete and non-partial", func() bool {
		return rangeQuery("o1")
	})
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
		// Polls: the restart soak runs on the wall clock, like the chaos
		// soak (ROADMAP direction 4).
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// failoverTree is the tiered 2×2 tree of the restart soak and
// BenchmarkLeafFailover. Every leaf keeps its registration log, a
// four-shard sighting log and its runs under its own name in one
// directory, so a leaf restarts from that directory alone.
type failoverTree struct {
	dep      *hierarchy.Deployment
	net      transport.Network
	rootArea core.Area
	dir      string
	// leafOpts opens id's logs under dir and returns the options a leaf
	// of the tree starts with.
	leafOpts func(id string) (server.Options, error)
}

// deployFailoverTree starts the tree on net with its logs under dir: base
// applies to every server, tier to every leaf.
func deployFailoverTree(tb testing.TB, net transport.Network, dir string, base server.Options, tier store.TierConfig) *failoverTree {
	tb.Helper()
	const shards = 4
	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1500, 1500),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
	}
	ft := &failoverTree{
		net:      net,
		rootArea: core.AreaFromRect(spec.RootArea),
		dir:      dir,
	}
	ft.leafOpts = func(id string) (server.Options, error) {
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
		return o, nil
	}
	dep, err := hierarchy.DeployWith(net, spec, base, func(cfg store.ConfigRecord, o server.Options) (server.Options, error) {
		if cfg.IsLeaf() {
			return ft.leafOpts(cfg.ID)
		}
		return o, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	ft.dep = dep
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

// restart closes leaf id and opens it again from its logs in the tree's
// place. A non-nil files runs in between, with the leaf's files closed.
func (ft *failoverTree) restart(id msg.NodeID, files func() error) (*server.Server, error) {
	if err := ft.dep.Servers[id].Close(); err != nil {
		return nil, err
	}
	if files != nil {
		if err := files(); err != nil {
			return nil, err
		}
	}
	opts, err := ft.leafOpts(string(id))
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

// crashImage copies leaf id's files, which is what a crash of its process
// would leave on disk: its registration log, sighting log and runs. The
// leaf may still be flushing or compacting (a node the network dropped
// keeps its janitor), and every step of those is atomic on disk but not
// across the files a copy reads one after another, so the copy is taken
// again until two in a row agree: that is the leaf's files at one
// instant. The returned function puts that image back in their place.
func (ft *failoverTree) crashImage(id msg.NodeID) (restore func() error, err error) {
	visitors := filepath.Join(ft.dir, string(id)+"-visitors.wal")
	sightings := filepath.Join(ft.dir, string(id)+"-sightings")
	read := func() (map[string][]byte, error) {
		image := map[string][]byte{}
		var err error
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
				return nil, err // removed by a compaction meanwhile: read again
			}
		}
		return image, nil
	}
	var image map[string][]byte
	for attempt := 0; ; attempt++ {
		next, rerr := read()
		if rerr == nil && image != nil && reflect.DeepEqual(image, next) {
			break
		}
		if attempt == 100 {
			return nil, fmt.Errorf("no two copies of %s's files agreed: %v", id, rerr)
		}
		image = next
		// Polls: the leaf's janitor signals nothing a copy could wait on.
		time.Sleep(5 * time.Millisecond)
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

// The leaf-failover benchmark's load and settings. The fleet is spread
// over the four quarters. A killed r.0 stays dark for failoverDark before
// it restarts, the time three missed 500 ms health probes take; the
// servers' 5 s call and query timeouts and the transport's breakers (open
// after three timeouts, 1 s cooldown) are lsd's defaults, so the window is
// that of a deployment that sets none of them.
const (
	failoverFleet  = 96
	failoverRounds = 5
	failoverDark   = 1500 * time.Millisecond
)

// failoverTier tiers every leaf's store, as Table F's tree did. The fleet
// never leaves the memtables: about six objects a shard stay far below the
// store's 4 KiB floor on a shard's share, so no run is flushed or read back
// by a restart.
var failoverTier = store.TierConfig{MemtableBytes: 64 << 10, MaxRuns: 4}

// fleetPos is object i's position in update round r: quarter i mod 4, two
// metres further east each round, so every round's position differs from
// the registration's and from every earlier round's.
func fleetPos(i, r int) geo.Point {
	qx, qy := float64(i%2), float64((i/2)%2)
	return geo.Pt(100+qx*750+float64(i%30)+float64(r)*2, 100+qy*750+float64((i/30)%30))
}

// BenchmarkLeafFailover measures what a client sees when a leaf dies and
// restarts from its own files. Every arm runs failoverTree's tiered 2×2
// tree, registers the fleet, waits until every forwarding path has reached
// the root, updates the fleet, kills r.0 with SetNodeDown, and after
// failoverDark restarts it from its files as they stood at the kill. The
// arms:
//
//   - restart: every forwarding path of the update rounds is at the root
//     before the kill, and the outage window is measured;
//   - restart-unsettled: the kill follows the last acknowledgement at
//     once, and only what it loses is measured.
//
// It reports the means over its iterations of
//
//   - failover.unavailable_ms, restart only: from the kill to the first
//     correct position query of an r.0 object through a live entry leaf;
//   - failover.ops_failed, restart only: the queries in that window that
//     did not return it. Each waits up to 50 ms, and the next follows
//     5 ms after;
//   - failover.restart_ms: from the kill until the restarted r.0 was
//     open again, recovered from its logs and attached — failoverDark plus
//     the reopen. The rest of unavailable_ms is the re-routing behind the
//     parent's breaker;
//   - failover.acked_lost, the r.0 objects whose last acknowledged
//     position the healed tree does not return (oracle.CheckPos).
//
// It runs on the wall clock: the time a client waits is what it measures.
// Each iteration is a whole run; -benchtime 1x -count 5 gives five.
func BenchmarkLeafFailover(b *testing.B) {
	for _, arm := range []struct {
		name    string
		settled bool
	}{
		{"restart", true},
		{"restart-unsettled", false},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var unavailable, restart time.Duration
			var failed, lost int
			for i := 0; i < b.N; i++ {
				u, r, f, l := leafFailover(b, arm.settled)
				unavailable, restart, failed, lost = unavailable+u, restart+r, failed+f, lost+l
			}
			n := float64(b.N)
			if arm.settled {
				b.ReportMetric(unavailable.Seconds()*1000/n, "failover.unavailable_ms")
				b.ReportMetric(float64(failed)/n, "failover.ops_failed")
			}
			b.ReportMetric(restart.Seconds()*1000/n, "failover.restart_ms")
			b.ReportMetric(float64(lost)/n, "failover.acked_lost")
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

// leafFailover runs one kill of r.0 and returns how long the restart took
// from the kill, the r.0 objects the healed tree does not return at their
// last acknowledged position and, on a settled run, the time until a
// query through r.1 finds an r.0 object where it was last acknowledged
// and the queries that failed inside it.
func leafFailover(b *testing.B, settled bool) (unavailable, restart time.Duration, failed, lost int) {
	down := transport.NewNodesDown(nil)
	net := transport.NewInproc(transport.InprocOptions{
		FaultPlan:        down.Plan,
		SweepInterval:    10 * time.Millisecond,
		BreakerThreshold: 3,
	})
	defer net.Close()
	tree := deployFailoverTree(b, net, b.TempDir(), server.Options{JanitorInterval: 50 * time.Millisecond}, failoverTier)
	defer tree.dep.Close()
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
	truth := oracle.New(tree.dep.Configs)
	var onVictim []core.OID
	for i := 0; i < failoverFleet; i++ {
		if leaf, _ := tree.dep.LeafFor(fleetPos(i, 0)); leaf == victim {
			onVictim = append(onVictim, core.OID(fmt.Sprintf("f-%d", i)))
		}
	}
	// settle polls, since nothing signals it, until every forwarding path
	// has reached the root. A path still climbing leaves its object
	// unreachable until the leaf sends it again, which would measure that
	// lag rather than the outage.
	settle := func() {
		for deadline := time.Now().Add(30 * time.Second); tree.dep.RootVisitorCount() < failoverFleet; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				b.Fatalf("the forwarding paths never all reached the root")
			}
		}
	}
	// The update rounds start from a tree whose paths are all in place,
	// so an unsettled kill loses what the leaf's logs lack of the
	// acknowledged updates, not the tree's start-up.
	objs := registerFleet(b, c, truth)
	settle()
	updateFleet(b, objs, truth)
	if settled {
		settle()
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
	image, err := tree.crashImage(victim)
	if err != nil {
		b.Fatal(err)
	}
	restarted := make(chan error, 1)
	go func() {
		time.Sleep(failoverDark - time.Since(killed))
		_, err := tree.restart(victim, image)
		restart = time.Since(killed)
		down.SetNodeDown(victim, false)
		restarted <- err
	}()
	if settled {
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
	if err := <-restarted; err != nil {
		b.Fatal(err)
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
	return unavailable, restart, failed, lost
}
