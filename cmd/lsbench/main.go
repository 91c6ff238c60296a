// Command lsbench regenerates the paper's Section 7 evaluation — table 1
// (storage throughput), table 2 (distributed response times) — and the
// ablations of its design choices, plus the hot-standby failover table that
// no bench/ workload covers yet. Engineering measurements (codec, batching,
// retries, tiered storage, range qualification) live in bench/'s workloads.
//
// Usage:
//
//	lsbench -table 1      # Table 1: data-storage throughput
//	lsbench -table 2      # Table 2: distributed response time / throughput
//	lsbench -table A2     # Section 6.5 caching ablation
//	lsbench -table A3     # hierarchy height/fan-out sweep
//	lsbench -table A4     # update-protocol comparison
//	lsbench -table A5     # query-locality sweep
//	lsbench -table F      # hot-standby replication: steady-state overhead, failover-to-first-query latency
//	lsbench -table all    # everything
//	lsbench -quick        # smaller populations, faster runs
//
// Numbers are produced on the in-process testbed (goroutine servers with a
// synthetic per-hop latency); compare shapes, not absolute values, against
// the paper (tables 1 and 2 print the paper's value beside each row).
// Its timings read the wall clock, which is what they measure.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/metrics"
	"locsvc/internal/mobility"
	"locsvc/internal/msg"
	"locsvc/internal/object"
	"locsvc/internal/server"
	"locsvc/internal/sim"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

func main() {
	table := flag.String("table", "all", "which table to run: 1, 2, A2 … A5, F or all")
	quick := flag.Bool("quick", false, "reduced populations for a fast smoke run")
	flag.Parse()

	run := func(name string, f func(bool)) {
		if *table == "all" || *table == name {
			f(*quick)
		}
	}
	run("1", table1)
	run("2", table2)
	run("A2", ablationCache)
	run("A3", ablationHierarchy)
	run("A4", ablationUpdateProtocols)
	run("A5", ablationLocality)
	run("F", tableRepl)

	switch *table {
	case "1", "2", "A2", "A3", "A4", "A5", "F", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(1)
	}
}

// ---------------------------------------------------------------------------
// Table 1.

func table1(quick bool) {
	objects := 25_000
	if quick {
		objects = 5_000
	}
	const side = 10_000.0
	fmt.Printf("\nTable 1: throughput of the data storage component\n")
	fmt.Printf("(service area %.0f km x %.0f km, %d tracked objects; paper values in parentheses)\n\n",
		side/1000, side/1000, objects)
	fmt.Printf("%-28s %16s\n", "operation", "operations/s")

	rng := rand.New(rand.NewSource(1))
	sightings := make([]core.Sighting, objects)
	now := time.Now()
	for i := range sightings {
		sightings[i] = core.Sighting{
			OID: core.OID(fmt.Sprintf("obj-%d", i)), T: now,
			Pos:     geo.Pt(rng.Float64()*side, rng.Float64()*side),
			SensAcc: 10,
		}
	}

	// Creating index.
	start := time.Now()
	db := store.NewShardedSightingDB()
	for _, s := range sightings {
		db.Put(s)
	}
	rate := float64(objects) / time.Since(start).Seconds()
	fmt.Printf("%-28s %16.0f   (paper: 24,015)\n", "creating index", rate)

	// Position updates.
	const updateOps = 200_000
	ops := updateOps
	if quick {
		ops = 40_000
	}
	start = time.Now()
	for i := 0; i < ops; i++ {
		s := sightings[rng.Intn(objects)]
		s.Pos = geo.Pt(rng.Float64()*side, rng.Float64()*side)
		db.Put(s)
	}
	fmt.Printf("%-28s %16.0f   (paper: 41,494)\n", "position updates", float64(ops)/time.Since(start).Seconds())

	// Position queries.
	start = time.Now()
	for i := 0; i < ops; i++ {
		db.Get(sightings[rng.Intn(objects)].OID)
	}
	fmt.Printf("%-28s %16.0f   (paper: 384,615)\n", "position query", float64(ops)/time.Since(start).Seconds())

	// Range queries at the paper's three sizes.
	for _, rq := range []struct {
		label string
		side  float64
		paper string
	}{
		{"range query (10 m x 10 m)", 10, "21,834"},
		{"range query (100 m x 100 m)", 100, "18,450"},
		{"range query (1 km x 1 km)", 1000, "1,813"},
	} {
		n := 20_000
		if rq.side >= 1000 {
			n = 2_000
		}
		if quick {
			n /= 10
		}
		start = time.Now()
		for i := 0; i < n; i++ {
			x := rng.Float64() * (side - rq.side)
			y := rng.Float64() * (side - rq.side)
			area := core.AreaFromRect(geo.R(x, y, x+rq.side, y+rq.side))
			enlarged := area.Bounds().Enlarge(25)
			db.SearchArea(enlarged, func(s core.Sighting) bool {
				ld := core.LocationDescriptor{Pos: s.Pos, Acc: s.SensAcc}
				area.RangeQualifies(ld, 25, 0.5)
				return true
			})
		}
		fmt.Printf("%-28s %16.0f   (paper: %s)\n", rq.label, float64(n)/time.Since(start).Seconds(), rq.paper)
	}
}

// ---------------------------------------------------------------------------
// Table 2.

func table2(quick bool) {
	numObjects := 10_000
	if quick {
		numObjects = 1_000
	}
	fmt.Printf("\nTable 2: response time and overall throughput, distributed configuration\n")
	fmt.Printf("(1.5 km x 1.5 km, 1 root + 4 leaf servers, %d objects, 200 us per message hop)\n\n", numObjects)

	w, err := sim.NewWorld(sim.Config{
		NumObjects: numObjects,
		HopLatency: 200 * time.Microsecond,
		Seed:       1,
	})
	if err != nil {
		fatal(err)
	}
	defer w.Close()

	fmt.Printf("%-32s %14s %18s\n", "operation", "resp. time", "throughput (1/s)")
	row := func(label, paper string, mean float64, tput float64) {
		fmt.Printf("%-32s %11.2f ms %18.0f   (paper: %s)\n", label, mean, tput, paper)
	}

	ctxb := context.Background()
	seqOps := 400
	parWorkers := 24
	parOps := 100
	if quick {
		seqOps, parOps = 100, 40
	}

	// Updates (always local).
	mean := measureSeq(seqOps, func(rng *rand.Rand) error { return w.UpdateRandomLocal(ctxb, rng) })
	tput := measurePar(parWorkers, parOps, func(rng *rand.Rand) error { return w.UpdateRandomLocal(ctxb, rng) })
	row("position updates (with ACK)", "1.2 ms / 4,954", mean, tput)

	// Local / remote position queries.
	mean = measureSeq(seqOps, func(rng *rand.Rand) error { return w.PosQueryFrom(ctxb, rng, true) })
	tput = measurePar(parWorkers, parOps, func(rng *rand.Rand) error { return w.PosQueryFrom(ctxb, rng, true) })
	row("local position query", "2.0 ms / 2,809", mean, tput)

	mean = measureSeq(seqOps, func(rng *rand.Rand) error { return w.PosQueryFrom(ctxb, rng, false) })
	tput = measurePar(parWorkers, parOps, func(rng *rand.Rand) error { return w.PosQueryFrom(ctxb, rng, false) })
	row("remote position query", "6.3 ms / 728", mean, tput)

	// Local range query (50 m, inside the entry leaf).
	mean = measureSeq(seqOps, func(rng *rand.Rand) error { return w.RangeQueryServers(ctxb, rng, 0) })
	tput = measurePar(parWorkers, parOps, func(rng *rand.Rand) error { return w.RangeQueryServers(ctxb, rng, 0) })
	row("local range query", "5.1 ms / 1,927", mean, tput)

	for servers, paper := range map[int]string{1: "13.0 ms / 588", 2: "14.6 ms / 364", 4: "13.8 ms / 284"} {
		s := servers
		mean = measureSeq(seqOps, func(rng *rand.Rand) error { return w.RangeQueryServers(ctxb, rng, s) })
		tput = measurePar(parWorkers, parOps, func(rng *rand.Rand) error { return w.RangeQueryServers(ctxb, rng, s) })
		row(fmt.Sprintf("remote range query (%d server)", servers), paper, mean, tput)
	}
}

// measureSeq runs op sequentially and returns the mean latency in ms.
func measureSeq(n int, op func(*rand.Rand) error) float64 {
	rng := rand.New(rand.NewSource(2))
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(rng); err != nil {
			fatal(err)
		}
	}
	return time.Since(start).Seconds() * 1000 / float64(n)
}

// measurePar runs op from workers goroutines and returns aggregate
// throughput in operations per second.
func measurePar(workers, opsPerWorker int, op func(*rand.Rand) error) float64 {
	var wg sync.WaitGroup
	var failures atomic.Int64
	start := time.Now()
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWorker; i++ {
				if err := op(rng); err != nil {
					failures.Add(1)
				}
			}
		}(int64(wkr) + 100)
	}
	wg.Wait()
	total := workers * opsPerWorker
	if f := failures.Load(); f > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d/%d parallel ops failed\n", f, total)
	}
	return float64(total) / time.Since(start).Seconds()
}

// ---------------------------------------------------------------------------
// Ablation A2: caching.

func ablationCache(quick bool) {
	fmt.Printf("\nAblation A2: Section 6.5 leaf caches, remote position queries\n\n")
	fmt.Printf("%-10s %14s %16s %12s\n", "caches", "mean resp.", "tree traversals", "msgs/query")
	ops := 300
	if quick {
		ops = 80
	}
	for _, enabled := range []bool{false, true} {
		var delivered atomic.Int64
		net := transport.NewInproc(transport.InprocOptions{
			Latency:   func(_, _ msg.NodeID) time.Duration { return 200 * time.Microsecond },
			OnDeliver: func(_, _ msg.NodeID, _ msg.Message) { delivered.Add(1) },
		})
		dep, err := hierarchy.Deploy(net, hierarchy.Spec{
			RootArea: geo.R(0, 0, 1500, 1500),
			Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
		}, server.Options{
			EnableAreaCache:  enabled,
			EnableAgentCache: enabled,
			EnablePosCache:   enabled,
		})
		if err != nil {
			fatal(err)
		}
		ctx := context.Background()
		owner, err := client.New(net, "owner", "r.0", client.Options{})
		if err != nil {
			fatal(err)
		}
		const n = 64
		for i := 0; i < n; i++ {
			if _, err := owner.Register(ctx, core.Sighting{
				OID: core.OID(fmt.Sprintf("a-%d", i)), T: time.Now(),
				Pos: geo.Pt(10+float64(i), 10), SensAcc: 5,
			}, 25, 100, 3); err != nil {
				fatal(err)
			}
		}
		time.Sleep(200 * time.Millisecond)
		remote, err := client.New(net, "remote", "r.3", client.Options{})
		if err != nil {
			fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		before := delivered.Load()
		start := time.Now()
		for i := 0; i < ops; i++ {
			if _, err := remote.PosQuery(ctx, core.OID(fmt.Sprintf("a-%d", rng.Intn(n)))); err != nil {
				fatal(err)
			}
		}
		mean := time.Since(start).Seconds() * 1000 / float64(ops)
		msgs := float64(delivered.Load()-before) / float64(ops)
		entry, _ := dep.Server("r.3")
		traversals := entry.Metrics().Counter("pos_query_remote").Value()
		label := "off"
		if enabled {
			label = "on"
		}
		fmt.Printf("%-10s %11.2f ms %16d %12.1f\n", label, mean, traversals, msgs)
		owner.Close()
		remote.Close()
		dep.Close()
		net.Close()
	}
}

// ---------------------------------------------------------------------------
// Ablation A3: hierarchy shape.

func ablationHierarchy(quick bool) {
	numObjects := 2_000
	ops := 200
	if quick {
		numObjects, ops = 500, 60
	}
	fmt.Printf("\nAblation A3: hierarchy height and fan-out (%d objects, mixed load)\n\n", numObjects)
	fmt.Printf("%-22s %8s %10s %14s %14s\n", "shape", "servers", "leaves", "remote pos ms", "msgs/op")

	shapes := []struct {
		name   string
		levels []hierarchy.Level
	}{
		{"flat 1x(2x2)", []hierarchy.Level{{Rows: 2, Cols: 2}}},
		{"flat 1x(4x4)", []hierarchy.Level{{Rows: 4, Cols: 4}}},
		{"deep 2x(2x2)", []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}}},
		{"deep 3x(2x2)", []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}}},
	}
	for _, shape := range shapes {
		spec := hierarchy.Spec{RootArea: geo.R(0, 0, 1600, 1600), Levels: shape.levels}
		w, err := sim.NewWorld(sim.Config{
			Spec:       spec,
			NumObjects: numObjects,
			HopLatency: 200 * time.Microsecond,
			Seed:       4,
		})
		if err != nil {
			fatal(err)
		}
		msgsBefore := w.Messages()
		res, err := w.Run(context.Background(), sim.Load{
			Workers:      8,
			OpsPerWorker: ops,
			Mix:          sim.Mix{PosQueries: 1},
			Locality:     0,
			Seed:         5,
		})
		if err != nil {
			fatal(err)
		}
		totalOps := int64(0)
		for _, st := range res.PerOp {
			totalOps += st.Count
		}
		msgs := float64(w.Messages()-msgsBefore) / float64(totalOps)
		remote := res.PerOp["pos_remote"]
		fmt.Printf("%-22s %8d %10d %14.2f %14.1f\n",
			shape.name, spec.NumServers(), len(w.Dep.Leaves()), remote.MeanMs, msgs)
		w.Close()
	}
}

// ---------------------------------------------------------------------------
// Ablation A4: update protocols (the "[15]" comparison).

func ablationUpdateProtocols(quick bool) {
	numObjects := 100
	ticks := 300
	if quick {
		numObjects, ticks = 30, 100
	}
	fmt.Printf("\nAblation A4: update protocols (%d random-waypoint objects, %d s simulated)\n\n", numObjects, ticks)
	fmt.Printf("%-16s %12s %14s %14s\n", "protocol", "updates", "mean dev (m)", "max dev (m)")

	policies := []func() object.Policy{
		func() object.Policy { return &object.DistanceBased{} },
		func() object.Policy { return &object.TimeBased{Interval: 10 * time.Second} },
		func() object.Policy { return &object.DeadReckoning{} },
	}
	for _, mk := range policies {
		net := transport.NewInproc(transport.InprocOptions{})
		dep, err := hierarchy.Deploy(net, hierarchy.Spec{
			RootArea: geo.R(0, 0, 1500, 1500),
			Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
		}, server.Options{AchievableAcc: 10})
		if err != nil {
			fatal(err)
		}
		ctx := context.Background()
		start := time.Date(2026, 6, 12, 8, 0, 0, 0, time.UTC)
		var sims []*object.Sim
		var name string
		for i := 0; i < numObjects; i++ {
			model := mobility.NewRandomWaypoint(geo.R(5, 5, 1495, 1495), 1, 15, 5, int64(i))
			entry, _ := dep.LeafFor(model.Pos())
			c, cerr := client.New(net, msg.NodeID(fmt.Sprintf("obj-node-%d", i)), entry, client.Options{})
			if cerr != nil {
				fatal(cerr)
			}
			pol := mk()
			name = pol.Name()
			s, serr := object.NewSim(ctx, c, core.OID(fmt.Sprintf("obj-%d", i)), model, pol, 5, 25, 100, 15, int64(i), start)
			if serr != nil {
				fatal(serr)
			}
			sims = append(sims, s)
		}
		for tick := 0; tick < ticks; tick++ {
			for _, s := range sims {
				if _, err := s.Tick(ctx, time.Second); err != nil {
					fatal(err)
				}
			}
		}
		var updates int
		var meanDev, maxDev float64
		for _, s := range sims {
			st := s.Stats()
			updates += st.Updates
			meanDev += st.MeanDev
			if st.MaxDev > maxDev {
				maxDev = st.MaxDev
			}
		}
		meanDev /= float64(numObjects)
		fmt.Printf("%-16s %12d %14.1f %14.1f\n", name, updates, meanDev, maxDev)
		dep.Close()
		net.Close()
	}
}

// ---------------------------------------------------------------------------
// Ablation A5: query locality.

func ablationLocality(quick bool) {
	numObjects := 2_000
	ops := 150
	if quick {
		numObjects, ops = 500, 50
	}
	fmt.Printf("\nAblation A5: query locality vs mean latency (%d objects)\n\n", numObjects)
	fmt.Printf("%-10s %14s %14s\n", "locality", "mean pos ms", "msgs/op")

	w, err := sim.NewWorld(sim.Config{
		NumObjects: numObjects,
		HopLatency: 200 * time.Microsecond,
		Seed:       6,
	})
	if err != nil {
		fatal(err)
	}
	defer w.Close()

	for _, locality := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		before := w.Messages()
		res, err := w.Run(context.Background(), sim.Load{
			Workers:      8,
			OpsPerWorker: ops,
			Mix:          sim.Mix{PosQueries: 1},
			Locality:     locality,
			Seed:         int64(7 + locality*100),
		})
		if err != nil {
			fatal(err)
		}
		var count int64
		var weighted float64
		for _, name := range []string{"pos_local", "pos_remote"} {
			st := res.PerOp[name]
			count += st.Count
			weighted += st.MeanMs * float64(st.Count)
		}
		mean := 0.0
		if count > 0 {
			mean = weighted / float64(count)
		}
		msgs := float64(w.Messages()-before) / float64(count)
		fmt.Printf("%-10.2f %14.2f %14.1f\n", locality, mean, msgs)
	}
}

// ---------------------------------------------------------------------------
// Table F: hot-standby leaf replication. Phase 1 measures what mirroring
// costs a fault-free deployment: the same tiered 2x2 hierarchy with and
// without standbys attached, synchronous updates only — the WAL tee rides
// the update path's WAL writer, so this is the honest steady-state
// overhead of streaming every committed batch to a peer (acceptance:
// <= 15% against the unreplicated run). Phase 2 measures the outage a
// client sees: kill a leaf, let the parent's health monitor promote the
// standby and rebind the child slot, and time from the kill to the first
// successful position query for an object homed on the dead leaf.
// Recorded runs live in BENCH_replication.json.

func tableRepl(quick bool) {
	fleet, rounds := 96, 25
	if quick {
		fleet, rounds = 24, 6
	}
	fmt.Printf("\nTable F: hot-standby leaf replication (%d objects x %d update rounds)\n\n", fleet, rounds)

	const (
		replShards  = 4
		healthEvery = 100 * time.Millisecond // parent probe cadence in phase 2
	)
	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1500, 1500),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
	}
	rootArea := core.AreaFromRect(spec.RootArea)
	quadrant := func(i int) geo.Point {
		qx, qy := float64(i%2), float64((i/2)%2)
		return geo.Pt(100+qx*750+float64(i%30), 100+qy*750+float64((i/30)%30))
	}
	// The memtable budget is small enough that the update rounds flush
	// runs mid-measurement: steady state includes run shipping, not just
	// the WAL-tail stream.
	tierCfg := func() *store.TierConfig {
		return &store.TierConfig{MemtableBytes: 64 << 10, MaxRuns: 4}
	}
	leafStore := func(walDir, id string, o server.Options) (server.Options, error) {
		vw, err := store.OpenFileWAL(walDir + "/" + id + "-visitors.wal")
		if err != nil {
			return o, err
		}
		o.WAL = vw
		sw, err := store.OpenShardedWAL(walDir+"/"+id+"-sightings", replShards)
		if err != nil {
			vw.Close()
			return o, err
		}
		o.SightingWAL = sw
		o.Tiering = tierCfg()
		return o, nil
	}

	// deploy builds the tiered hierarchy, with hot standbys attached when
	// replicated, and returns a teardown closure.
	deploy := func(net *transport.Inproc, srvOpts server.Options, replicated, monitored bool) (*hierarchy.Deployment, map[msg.NodeID]*server.Server, func()) {
		walDir, err := os.MkdirTemp("", "lsbench-repl")
		if err != nil {
			fatal(err)
		}
		dep, err := hierarchy.DeployWith(net, spec, srvOpts, func(cfg store.ConfigRecord, o server.Options) (server.Options, error) {
			if cfg.IsLeaf() {
				if replicated {
					o.ReplPeer = cfg.ID + "~s"
				}
				return leafStore(walDir, cfg.ID, o)
			}
			if replicated && monitored {
				o.Replicas = make(map[string]string, len(cfg.Children))
				for _, ch := range cfg.Children {
					o.Replicas[ch.ID] = ch.ID + "~s"
				}
				o.ReplHealthInterval = healthEvery
			}
			return o, nil
		})
		if err != nil {
			fatal(err)
		}
		standbys := make(map[msg.NodeID]*server.Server)
		if replicated {
			for _, rec := range dep.Configs {
				if !rec.IsLeaf() {
					continue
				}
				sb := rec
				sb.ID = rec.ID + "~s"
				o := srvOpts
				o.ReplPeer = rec.ID
				o.ReplStandby = true
				o, err = leafStore(walDir, sb.ID, o)
				if err != nil {
					fatal(err)
				}
				s, serr := server.New(sb, rootArea, net, o)
				if serr != nil {
					fatal(serr)
				}
				standbys[msg.NodeID(rec.ID)] = s
			}
		}
		return dep, standbys, func() {
			for _, s := range standbys {
				s.Close()
			}
			dep.Close()
			os.RemoveAll(walDir)
		}
	}

	// Phase 1: fault-free steady-state overhead on the LAN model.
	runCfg := func(replicated bool) time.Duration {
		net := transport.NewInproc(transport.InprocOptions{
			Latency: func(_, _ msg.NodeID) time.Duration { return 200 * time.Microsecond },
		})
		defer net.Close()
		dep, _, teardown := deploy(net, server.Options{JanitorInterval: 50 * time.Millisecond}, replicated, false)
		defer teardown()

		ctx := context.Background()
		entry, _ := dep.LeafFor(geo.Pt(100, 100))
		cl, err := client.New(net, "bench-client", entry, client.Options{Timeout: 10 * time.Second})
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		objs := make([]*client.TrackedObject, fleet)
		for i := range objs {
			obj, rerr := cl.Register(ctx, core.Sighting{
				OID: core.OID(fmt.Sprintf("f-%d", i)), T: time.Now(),
				Pos: quadrant(i), SensAcc: 10,
			}, 10, 100, 3)
			if rerr != nil {
				fatal(rerr)
			}
			objs[i] = obj
		}
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for i, obj := range objs {
				p := quadrant(i)
				p.X += float64(r%5) * 2
				if uerr := obj.Update(ctx, core.Sighting{
					OID: core.OID(fmt.Sprintf("f-%d", i)), T: time.Now(), Pos: p, SensAcc: 10,
				}); uerr != nil {
					fatal(uerr)
				}
			}
		}
		return time.Since(start)
	}
	minDur := func(a, b time.Duration) time.Duration {
		if a < b {
			return a
		}
		return b
	}
	base, repl := runCfg(false), runCfg(true)
	base, repl = minDur(base, runCfg(false)), minDur(repl, runCfg(true))
	fmt.Printf("%-30s %12s %14s\n", "config", "updates/s", "elapsed ms")
	report := func(label string, d time.Duration) {
		fmt.Printf("%-30s %12.0f %14.1f\n", label, float64(fleet*rounds)/d.Seconds(), d.Seconds()*1000)
	}
	report("unreplicated (tiered)", base)
	report("replicated (WAL tee + runs)", repl)
	overhead := (repl.Seconds() - base.Seconds()) / base.Seconds() * 100
	fmt.Printf("\nsteady-state overhead: %+.1f%% (acceptance: <= 15%%)\n", overhead)

	// Phase 2: failover. The root monitors every leaf pair; killing r.0
	// must promote r.0~s and rebind the child slot without operator
	// action. The clock runs from the kill to the first successful
	// position query for an object the dead leaf was agent of, issued
	// through a live entry leaf — it covers detection (3 failed probes),
	// promotion, rebinding and the query retry that finally lands.
	reg := metrics.NewRegistry()
	net := transport.NewInproc(transport.InprocOptions{
		Metrics:          reg,
		SweepInterval:    10 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  250 * time.Millisecond,
	})
	defer net.Close()
	dep, standbys, teardown := deploy(net,
		server.Options{
			Metrics:         reg,
			JanitorInterval: 50 * time.Millisecond,
			CallTimeout:     150 * time.Millisecond,
			QueryTimeout:    400 * time.Millisecond,
		},
		true, true)
	defer teardown()

	ctx := context.Background()
	cl, err := client.New(net, "failover-client", "r.1", client.Options{
		Timeout: 10 * time.Second,
		Retry:   transport.DefaultRetryPolicy(),
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	for i := 0; i < fleet; i++ {
		if _, rerr := cl.Register(ctx, core.Sighting{
			OID: core.OID(fmt.Sprintf("f-%d", i)), T: time.Now(),
			Pos: quadrant(i), SensAcc: 10,
		}, 10, 100, 3); rerr != nil {
			fatal(rerr)
		}
	}
	// Wait for the standby mirror of the victim's quarter to be complete,
	// so the failover serves every object, then pull the plug.
	victim := msg.NodeID("r.0")
	heir := standbys[victim]
	syncFrom := time.Now()
	for heir.SightingCount() < dep.Servers[victim].SightingCount() ||
		heir.VisitorCount() < dep.Servers[victim].VisitorCount() {
		if time.Since(syncFrom) > 30*time.Second {
			fatal(fmt.Errorf("standby of %s never caught up", victim))
		}
		time.Sleep(5 * time.Millisecond)
	}
	net.SetNodeDown(victim, true)
	killedAt := time.Now()
	for {
		qctx, cancel := context.WithTimeout(ctx, time.Second)
		ld, qerr := cl.PosQuery(qctx, "f-0")
		cancel()
		if qerr == nil && ld.Pos == quadrant(0) {
			break
		}
		if time.Since(killedAt) > 30*time.Second {
			fatal(fmt.Errorf("no successful query %v after killing %s", time.Since(killedAt), victim))
		}
		time.Sleep(5 * time.Millisecond)
	}
	toFirstQuery := time.Since(killedAt)
	fmt.Printf("\nfailover: %.0f ms from leaf kill to first successful position query\n", toFirstQuery.Seconds()*1000)
	fmt.Printf("(probe cadence %v, 3-failure threshold, %d failover(s), %d probe failure(s))\n",
		healthEvery, reg.Counter("repl_failovers").Value(), reg.Counter("repl_probe_failures").Value())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsbench:", err)
	os.Exit(1)
}
