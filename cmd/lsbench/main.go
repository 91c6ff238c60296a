// Command lsbench regenerates the paper's evaluation tables and the
// ablation studies listed below; each table's own comment in this package
// says what it measures and where its recorded run lives.
//
// Usage:
//
//	lsbench -table 1      # Table 1: data-storage throughput
//	lsbench -table 2      # Table 2: distributed response time / throughput
//	lsbench -table A2     # caching ablation
//	lsbench -table A3     # hierarchy height/fan-out sweep
//	lsbench -table A4     # update-protocol comparison
//	lsbench -table A5     # query-locality sweep
//	lsbench -table W      # wire codec: binary envelope round trips
//	lsbench -table B      # datagram batching + async client over real UDP
//	lsbench -table R      # resilience: retry/breaker overhead, degraded queries, recovery time
//	lsbench -table L      # tiered (LSM) sighting storage: bigger-than-RAM leaves, tail-only recovery
//	lsbench -table F      # hot-standby replication: steady-state overhead, failover-to-first-query latency
//	lsbench -table Q      # leaf range/NN qualification: time per candidate, allocations, exact-path share
//	lsbench -table all    # everything
//	lsbench -quick        # smaller populations, faster runs
//
// Numbers are produced on the in-process testbed (goroutine servers with a
// synthetic per-hop latency); compare shapes, not absolute values, against
// the paper (tables 1 and 2 print the paper's value beside each row).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
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
	"locsvc/internal/wire"
)

func main() {
	table := flag.String("table", "all", "which table to run: 1, 2, A2 … A7, W, B, R, L, F, Q or all")
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
	run("A6", ablationRootPartitions)
	run("A7", ablationShardedStore)
	run("W", tableWire)
	run("B", tableBatch)
	run("R", tableResilience)
	run("L", tableLSM)
	run("F", tableRepl)
	run("Q", tableRangeQualify)

	switch *table {
	case "1", "2", "A2", "A3", "A4", "A5", "A6", "A7", "W", "B", "R", "L", "F", "Q", "all":
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
// Ablation A6: HLR-style root partitioning (Section 4).

func ablationRootPartitions(quick bool) {
	numObjects := 3_000
	ops := 200
	if quick {
		numObjects, ops = 600, 60
	}
	fmt.Printf("\nAblation A6: root partitioning by object id (%d objects, remote position queries)\n\n", numObjects)
	fmt.Printf("%-12s %22s %24s\n", "partitions", "records per partition", "query msgs per partition")

	for _, parts := range []int{1, 2, 4} {
		w, err := sim.NewWorld(sim.Config{
			Spec: hierarchy.Spec{
				RootArea:       geo.R(0, 0, 1500, 1500),
				Levels:         []hierarchy.Level{{Rows: 2, Cols: 2}},
				RootPartitions: parts,
			},
			NumObjects: numObjects,
			Seed:       8,
		})
		if err != nil {
			fatal(err)
		}
		// Count PosQueryFwd arrivals per root partition through each
		// server's own metrics registry.
		roots := w.Dep.Roots()
		before := make(map[msg.NodeID]int64)
		for _, r := range roots {
			srv, _ := w.Dep.Server(r)
			before[r] = srv.Metrics().Counter("pos_fwd_seen").Value()
		}
		_, err = w.Run(context.Background(), sim.Load{
			Workers: 8, OpsPerWorker: ops,
			Mix: sim.Mix{PosQueries: 1}, Locality: 0, Seed: 13,
		})
		if err != nil {
			fatal(err)
		}
		var recStats, msgStats []string
		for _, r := range roots {
			srv, _ := w.Dep.Server(r)
			recStats = append(recStats, fmt.Sprintf("%d", srv.VisitorCount()))
			msgStats = append(msgStats, fmt.Sprintf("%d", srv.Metrics().Counter("pos_fwd_seen").Value()-before[r]))
		}
		fmt.Printf("%-12d %22s %24s\n", parts, strings.Join(recStats, "/"), strings.Join(msgStats, "/"))
		w.Close()
	}
}

// ---------------------------------------------------------------------------
// Ablation A7: the sighting store's shard count under the batched update
// pipeline. Parallel workers hammer one store of 1 (the default), 4 and 8
// shards. The wal upd/s column repeats the update workload with durable
// per-shard sighting logs attached (one WAL append per group-commit batch,
// no fsync; recorded runs in BENCH_wal.json). The knn5 column shows the
// resumable per-shard nearest-neighbor cursors: the distance-ordered merge
// advances each shard one neighbor at a time instead of re-fetching
// prefixes with doubled depth (recorded runs live in
// BENCH_sharded_store.json and BENCH_nn_cursor.json; their "single lock"
// rows are a store that no longer exists).

func ablationShardedStore(quick bool) {
	objects := 25_000
	opsPerWorker := 50_000
	if quick {
		objects, opsPerWorker = 5_000, 10_000
	}
	const side = 10_000.0
	const workers = 8
	fmt.Printf("\nAblation A7: shard count (%d objects, %d workers x %d updates)\n\n",
		objects, workers, opsPerWorker)
	fmt.Printf("%-8s %14s %14s %14s %14s\n", "shards", "updates/s", "wal upd/s", "range q/s", "knn5 q/s")

	// measureUpdates loads db with the standard population and hammers it
	// with the parallel pipeline update workload, returning updates/s.
	measureUpdates := func(db *store.ShardedSightingDB) float64 {
		rng := rand.New(rand.NewSource(1))
		sightings := make([]core.Sighting, objects)
		now := time.Now()
		for i := range sightings {
			sightings[i] = core.Sighting{
				OID: core.OID(fmt.Sprintf("obj-%d", i)), T: now,
				Pos:     geo.Pt(rng.Float64()*side, rng.Float64()*side),
				SensAcc: 10,
			}
			db.Put(sightings[i])
		}
		pipe := store.NewUpdatePipeline(db)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < opsPerWorker; i++ {
					s := sightings[wrng.Intn(objects)]
					s.Pos = geo.Pt(wrng.Float64()*side, wrng.Float64()*side)
					pipe.Put(s)
				}
			}(w)
		}
		wg.Wait()
		return float64(workers*opsPerWorker) / time.Since(start).Seconds()
	}

	for _, shards := range []int{1, 4, 8} {
		db := store.NewShardedSightingDB(store.WithShards(shards))
		updateRate := measureUpdates(db)

		// Same workload with durable per-shard sighting logs attached
		// (process-crash durability, no fsync) — the wal upd/s column.
		walDir, err := os.MkdirTemp("", "lsbench-wal")
		if err != nil {
			fatal(err)
		}
		swal, err := store.OpenShardedWAL(walDir, shards)
		if err != nil {
			fatal(err)
		}
		walRate := measureUpdates(store.NewShardedSightingDB(store.WithSightingWAL(swal)))
		if err := swal.Flush(); err != nil {
			fatal(err)
		}
		swal.Close()
		os.RemoveAll(walDir)

		queries := opsPerWorker / 10
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(int64(100 + w)))
				for i := 0; i < queries; i++ {
					x := wrng.Float64() * (side - 100)
					y := wrng.Float64() * (side - 100)
					db.SearchArea(geo.R(x, y, x+100, y+100), func(core.Sighting) bool { return true })
				}
			}(w)
		}
		wg.Wait()
		queryRate := float64(workers*queries) / time.Since(start).Seconds()

		knnOps := opsPerWorker / 10
		start = time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(int64(200 + w)))
				for i := 0; i < knnOps; i++ {
					p := geo.Pt(wrng.Float64()*side, wrng.Float64()*side)
					n := 0
					db.NearestFunc(p, func(core.Sighting, float64) bool {
						n++
						return n < 5
					})
				}
			}(w)
		}
		wg.Wait()
		knnRate := float64(workers*knnOps) / time.Since(start).Seconds()
		fmt.Printf("%-8d %14.0f %14.0f %14.0f %14.0f\n", shards, updateRate, walRate, queryRate, knnRate)
	}
}

// ---------------------------------------------------------------------------
// Table W: wire codec. The hand-rolled binary codec on the datagrams that
// dominate steady-state traffic: every remote operation pays the codec
// twice (request + response), so round-trip encode+decode throughput is
// the number that matters. BENCH_wire.json records its comparison with the
// encoding/gob format it replaced.

func tableWire(quick bool) {
	binOps := 2_000_000
	if quick {
		binOps = 200_000
	}
	fmt.Printf("\nTable W: wire codec round trips\n\n")
	fmt.Printf("%-20s %10s %14s\n", "message", "bin bytes", "binary rt/s")

	subObjs := make([]core.Entry, 16)
	for i := range subObjs {
		subObjs[i] = core.Entry{
			OID: core.OID(fmt.Sprintf("obj-%04d", i)),
			LD:  core.LocationDescriptor{Pos: geo.Pt(float64(i)*10, 500), Acc: 10},
		}
	}
	envelopes := []struct {
		name string
		env  msg.Envelope
	}{
		{"UpdateReq", msg.Envelope{From: "obj-node-17", CorrID: 421, Msg: msg.UpdateReq{S: core.Sighting{
			OID: "truck-7", T: time.Unix(1_700_000_000, 250_000_000).UTC(),
			Pos: geo.Pt(1234.5, 987.25), SensAcc: 10,
		}}}},
		{"PosQueryRes", msg.Envelope{From: "r.2", CorrID: 99, Reply: true, Msg: msg.PosQueryRes{
			OpID: 7, Found: true,
			LD:    core.LocationDescriptor{Pos: geo.Pt(431.25, 1102.5), Acc: 12.5},
			Agent: "r.2",
			AgentInfo: msg.LeafInfo{
				ID:   "r.2",
				Area: core.AreaFromRect(geo.R(0, 750, 750, 1500)),
			},
			MaxSpeed: 15, Hops: 3,
		}}},
		{"RangeQuerySubRes(16)", msg.Envelope{From: "r.1", Msg: msg.RangeQuerySubRes{
			OpID: 99, Objs: subObjs, CoveredSize: 2500,
			Leaf: msg.LeafInfo{ID: "r.1", Area: core.AreaFromRect(geo.R(0, 0, 750, 750))},
		}}},
	}

	for _, e := range envelopes {
		binData, err := wire.Encode(e.env)
		if err != nil {
			fatal(err)
		}

		buf := make([]byte, 0, len(binData))
		start := time.Now()
		for i := 0; i < binOps; i++ {
			buf, err = wire.AppendEncode(buf[:0], e.env)
			if err != nil {
				fatal(err)
			}
			if _, err := wire.Decode(buf); err != nil {
				fatal(err)
			}
		}
		binRate := float64(binOps) / time.Since(start).Seconds()

		fmt.Printf("%-20s %10d %14.0f\n", e.name, len(binData), binRate)
	}
}

// ---------------------------------------------------------------------------
// Table B: datagram batching and the multiplexed async client over real UDP
// sockets. An update-heavy fan-out workload — one client node keeping a
// fleet of objects fresh with UpdateAsync — runs once with the batcher off
// (every envelope its own datagram, the pre-batching transport) and once
// with coalescing on. Throughput, fan-out round latency and the
// envelopes-per-datagram ratio come from the same shared metrics registry
// the servers report through. Recorded runs live in BENCH_batch.json.

func tableBatch(quick bool) {
	fleet := 192
	rounds := 25
	if quick {
		fleet, rounds = 48, 5
	}
	fmt.Printf("\nTable B: datagram batching + multiplexed async client (real UDP, %d objects x %d update rounds)\n\n", fleet, rounds)
	fmt.Printf("%-18s %12s %14s %14s %12s %12s\n",
		"config", "updates/s", "fan-out ms", "envs/datagram", "datagrams", "envelopes")

	type result struct {
		updatesPerSec float64
		fanoutMs      float64
		ratio         float64
	}
	runCfg := func(label string, batchMax int) result {
		reg := metrics.NewRegistry()
		net := transport.NewUDPWithOptions(transport.UDPOptions{
			Metrics:     reg,
			BatchMax:    batchMax,
			CallTimeout: 10 * time.Second,
			MaxInFlight: 512,
		})
		defer net.Close()
		dep, err := hierarchy.Deploy(net, hierarchy.Spec{
			RootArea: geo.R(0, 0, 1500, 1500),
			Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
		}, server.Options{})
		if err != nil {
			fatal(err)
		}
		defer dep.Close()

		ctx := context.Background()
		entry, _ := dep.LeafFor(geo.Pt(100, 100))
		cl, err := client.New(net, "bench-client", entry, client.Options{Timeout: 10 * time.Second})
		if err != nil {
			fatal(err)
		}
		defer cl.Close()

		// Spread the fleet over all four leaves so the coalescer batches
		// per destination, then jitter updates inside each quadrant so no
		// round triggers handovers.
		quadrant := func(i int) geo.Point {
			qx, qy := float64(i%2), float64((i/2)%2)
			return geo.Pt(100+qx*750+float64(i%30), 100+qy*750+float64((i/30)%30))
		}
		objs := make([]*client.TrackedObject, fleet)
		for i := range objs {
			obj, err := cl.Register(ctx, core.Sighting{
				OID: core.OID(fmt.Sprintf("b-%d", i)), T: time.Now(),
				Pos: quadrant(i), SensAcc: 10,
			}, 10, 100, 3)
			if err != nil {
				fatal(err)
			}
			objs[i] = obj
		}

		envBefore := reg.Counter("wire_envelopes_out").Value()
		dgBefore := reg.Counter("wire_datagrams_out").Value()
		pending := make([]*client.PendingUpdate, fleet)
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for i, obj := range objs {
				p := quadrant(i)
				p.X += float64(r%5) * 2
				pu, err := obj.UpdateAsync(ctx, core.Sighting{
					OID: core.OID(fmt.Sprintf("b-%d", i)), T: time.Now(), Pos: p, SensAcc: 10,
				})
				if err != nil {
					fatal(err)
				}
				pending[i] = pu
			}
			for _, pu := range pending {
				if err := pu.Wait(ctx); err != nil {
					fatal(err)
				}
			}
		}
		elapsed := time.Since(start)
		envs := reg.Counter("wire_envelopes_out").Value() - envBefore
		dgs := reg.Counter("wire_datagrams_out").Value() - dgBefore

		res := result{
			updatesPerSec: float64(fleet*rounds) / elapsed.Seconds(),
			fanoutMs:      elapsed.Seconds() * 1000 / float64(rounds),
			ratio:         float64(envs) / float64(dgs),
		}
		fmt.Printf("%-18s %12.0f %14.2f %14.2f %12d %12d\n",
			label, res.updatesPerSec, res.fanoutMs, res.ratio, dgs, envs)
		return res
	}

	unbatched := runCfg("unbatched", 1)
	batched := runCfg("batched (16)", 16)
	fmt.Printf("\ndatagram reduction: %.1fx fewer datagrams per envelope; fan-out %.2fx faster\n",
		batched.ratio/unbatched.ratio, unbatched.fanoutMs/batched.fanoutMs)
}

// ---------------------------------------------------------------------------
// Table R: resilience. Three questions, answered on the in-process testbed:
//
//  1. What does the resilience machinery cost when nothing fails? The same
//     update/query workload runs once with retries, breakers and the
//     path-retry budget effectively off, and once with the full stack armed.
//     On a loss-free network no retry ever fires, so the delta is the pure
//     bookkeeping overhead (sequence stamping, dedupe lookups, breaker state
//     checks, tracked fan-out acks) — the acceptance bar is <= 5%.
//  2. What do degraded queries cost while a leaf is dark? Whole-area range
//     queries run against a paused leaf: the first ones burn the query
//     timeout, then the parent's breaker opens and the remainder fail fast
//     with an unreachable report. Both latencies and the partial rate are
//     reported.
//  3. How fast does the hierarchy recover? The dark leaf is crashed for
//     real and restarted from its WAL; recovery time is measured from the
//     restart until the parent's breaker has closed AND a whole-area query
//     comes back complete (not partial).
//
// Recorded runs live in BENCH_resilience.json.

func tableResilience(quick bool) {
	fleet, rounds, darkQueries := 128, 20, 12
	if quick {
		fleet, rounds, darkQueries = 32, 5, 6
	}
	fmt.Printf("\nTable R: resilience (%d objects x %d update rounds + per-round range query)\n\n", fleet, rounds)

	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1500, 1500),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
	}
	quadrant := func(i int) geo.Point {
		qx, qy := float64(i%2), float64((i/2)%2)
		return geo.Pt(100+qx*750+float64(i%30), 100+qy*750+float64((i/30)%30))
	}
	wholeArea := core.AreaFromRect(spec.RootArea)

	// Phase 1: fault-free overhead, resilience off vs on. Both configs
	// run on the suite's LAN model (200µs per hop, as in Table 2): the
	// question is what the stack costs a deployment whose per-op budget
	// is network-bound, not how it microbenchmarks against a zero-cost
	// in-memory hop.
	runCfg := func(resilient bool) (elapsed time.Duration) {
		opts := transport.InprocOptions{
			Latency: func(_, _ msg.NodeID) time.Duration { return 200 * time.Microsecond },
		}
		if resilient {
			opts.BreakerThreshold = 3
			opts.BreakerCooldown = 250 * time.Millisecond
		}
		net := transport.NewInproc(opts)
		defer net.Close()
		srvOpts := server.Options{}
		if !resilient {
			srvOpts.PathRetry = transport.RetryPolicy{MaxAttempts: 1}
		}
		dep, err := hierarchy.Deploy(net, spec, srvOpts)
		if err != nil {
			fatal(err)
		}
		defer dep.Close()

		ctx := context.Background()
		clOpts := client.Options{Timeout: 10 * time.Second}
		if resilient {
			clOpts.Retry = transport.DefaultRetryPolicy()
		}
		entry, _ := dep.LeafFor(geo.Pt(100, 100))
		cl, err := client.New(net, "bench-client", entry, clOpts)
		if err != nil {
			fatal(err)
		}
		defer cl.Close()

		objs := make([]*client.TrackedObject, fleet)
		for i := range objs {
			obj, rerr := cl.Register(ctx, core.Sighting{
				OID: core.OID(fmt.Sprintf("r-%d", i)), T: time.Now(),
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
					OID: core.OID(fmt.Sprintf("r-%d", i)), T: time.Now(), Pos: p, SensAcc: 10,
				}); uerr != nil {
					fatal(uerr)
				}
			}
			if _, qerr := cl.RangeQueryFull(ctx, wholeArea, 100, 0.5); qerr != nil {
				fatal(qerr)
			}
		}
		return time.Since(start)
	}

	fmt.Printf("%-26s %12s %14s\n", "config", "ops/s", "elapsed ms")
	report := func(label string, d time.Duration) {
		ops := float64(fleet*rounds+rounds) / d.Seconds()
		fmt.Printf("%-26s %12.0f %14.1f\n", label, ops, d.Seconds()*1000)
	}
	// Interleave two runs per config and keep the faster one: the very
	// first deployment absorbs process warm-up, which would otherwise be
	// billed entirely to whichever config runs first.
	minDur := func(a, b time.Duration) time.Duration {
		if a < b {
			return a
		}
		return b
	}
	base, resil := runCfg(false), runCfg(true)
	base, resil = minDur(base, runCfg(false)), minDur(resil, runCfg(true))
	report("baseline (stack off)", base)
	report("resilient (stack armed)", resil)
	overhead := (resil.Seconds() - base.Seconds()) / base.Seconds() * 100
	fmt.Printf("\nfault-free overhead: %+.1f%% (acceptance: <= 5%%)\n", overhead)

	// Phases 2 + 3 share one resilient deployment with a WAL-backed leaf.
	const (
		callTO   = 150 * time.Millisecond
		queryTO  = 400 * time.Millisecond
		cooldown = 250 * time.Millisecond
	)
	reg := metrics.NewRegistry()
	net := transport.NewInproc(transport.InprocOptions{
		Metrics:          reg,
		SweepInterval:    10 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  cooldown,
	})
	defer net.Close()
	walDir, err := os.MkdirTemp("", "lsbench-resilience")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(walDir)
	darkLeaf := msg.NodeID("r.3")
	walPath := walDir + "/r3.wal"
	srvOpts := server.Options{CallTimeout: callTO, QueryTimeout: queryTO}
	dep, err := hierarchy.DeployWith(net, spec, srvOpts, func(cfg store.ConfigRecord, o server.Options) (server.Options, error) {
		if msg.NodeID(cfg.ID) == darkLeaf {
			wal, werr := store.OpenFileWAL(walPath)
			if werr != nil {
				return o, werr
			}
			o.WAL = wal
		}
		return o, nil
	})
	if err != nil {
		fatal(err)
	}
	defer dep.Close()

	ctx := context.Background()
	cl, err := client.New(net, "dark-client", "r.0", client.Options{
		Timeout: 10 * time.Second,
		Retry:   transport.DefaultRetryPolicy(),
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 4; i++ {
		if _, rerr := cl.Register(ctx, core.Sighting{
			OID: core.OID(fmt.Sprintf("d-%d", i)), T: time.Now(),
			Pos: quadrant(i), SensAcc: 10,
		}, 10, 100, 3); rerr != nil {
			fatal(rerr)
		}
	}

	// Phase 2: degraded queries against a paused leaf. The first queries
	// wait out the coordinator's query timeout; once the breaker opens
	// the unreachable report short-circuits the wait.
	net.SetNodeDown(darkLeaf, true)
	var darkLat []time.Duration
	partial := 0
	for i := 0; i < darkQueries; i++ {
		qs := time.Now()
		res, qerr := cl.RangeQueryFull(ctx, wholeArea, 100, 0.5)
		if qerr != nil {
			fatal(qerr)
		}
		darkLat = append(darkLat, time.Since(qs))
		if res.Partial {
			partial++
		}
	}
	first, last := darkLat[0], darkLat[len(darkLat)-1]
	fmt.Printf("\ndark-leaf range queries: %d/%d partial; first %.0f ms (timeout-bound), last %.0f ms (breaker fail-fast)\n",
		partial, darkQueries, first.Seconds()*1000, last.Seconds()*1000)

	// Phase 3: crash the paused leaf for real and restart it from its
	// WAL; recovery is complete when the parent's breaker closed and a
	// whole-area query is no longer partial.
	net.SetNodeDown(darkLeaf, false)
	if cerr := dep.Servers[darkLeaf].Close(); cerr != nil {
		fatal(cerr)
	}
	wal, err := store.OpenFileWAL(walPath)
	if err != nil {
		fatal(err)
	}
	restartOpts := srvOpts
	restartOpts.WAL = wal
	var cfg store.ConfigRecord
	for _, c := range dep.Configs {
		if msg.NodeID(c.ID) == darkLeaf {
			cfg = c
		}
	}
	restartAt := time.Now()
	srv, err := server.New(cfg, core.AreaFromRect(spec.RootArea), net, restartOpts)
	if err != nil {
		fatal(err)
	}
	dep.Servers[darkLeaf] = srv
	for {
		res, qerr := cl.RangeQueryFull(ctx, wholeArea, 100, 0.5)
		if qerr == nil && !res.Partial && net.PeerState(dep.Root(), darkLeaf) == transport.PeerClosed {
			break
		}
		if time.Since(restartAt) > 30*time.Second {
			fatal(fmt.Errorf("hierarchy never recovered after %s restart", darkLeaf))
		}
		time.Sleep(cooldown / 5)
	}
	recovery := time.Since(restartAt)
	fmt.Printf("leaf restart recovery: %.0f ms until breaker closed + first complete query (cooldown %v)\n",
		recovery.Seconds()*1000, cooldown)
	fmt.Printf("breaker fail-fast rejections during dark phase: %d; visitors restored from WAL: %d\n",
		reg.Counter("wire_breaker_open").Value(), srv.VisitorCount())
}

// ---------------------------------------------------------------------------
// Table L: tiered (LSM) sighting storage. The memtable budget is set to a
// quarter of the dataset's resident footprint, so ~3/4 of the working set
// lives in sorted runs on disk — the bigger-than-RAM regime the tier
// exists for. Four questions: (1) what does tiering cost on the update
// path next to the all-RAM WAL store, (2) what do point lookups cost when
// they hit the memtable (hot) vs when they fall through the bloom-gated
// runs (cold), (3) what does a range query cost when its answer lies in
// the runs' spatial leaves, and (4) how much faster is recovery when it
// opens run footers and replays only the WAL tail instead of folding the
// full log.
// Recorded runs live in BENCH_lsm.json.

func tableLSM(quick bool) {
	const side = 10_000.0
	const shards = 8
	const workers = 8
	objects := 200_000
	opsPerWorker := 50_000
	lookups := 100_000
	recoverPop := 1_000_000
	if quick {
		objects, opsPerWorker, lookups, recoverPop = 20_000, 5_000, 10_000, 50_000
	}
	// A quarter of the estimated resident footprint (~180 B/entry): the
	// dataset is 4x the memtable budget, per the design target.
	budget := int64(objects) * 180 / 4

	fmt.Printf("\nTable L: tiered (LSM) sighting storage\n")
	fmt.Printf("(%d objects, %d shards, memtable budget %d KiB = dataset/4, %d workers)\n\n",
		objects, shards, budget>>10, workers)

	newSightings := func(n int) []core.Sighting {
		rng := rand.New(rand.NewSource(1))
		ss := make([]core.Sighting, n)
		now := time.Now()
		for i := range ss {
			ss[i] = core.Sighting{
				OID: core.OID(fmt.Sprintf("obj-%d", i)), T: now,
				Pos:     geo.Pt(rng.Float64()*side, rng.Float64()*side),
				SensAcc: 10,
			}
		}
		return ss
	}

	// loadAndHammer populates db and runs the parallel pipeline update
	// workload; maintain (non-nil on tiered stores) is called periodically
	// the way the janitor would.
	loadAndHammer := func(db *store.ShardedSightingDB, ss []core.Sighting, maintain func()) float64 {
		for _, s := range ss {
			db.Put(s)
		}
		if maintain != nil {
			maintain()
		}
		pipe := store.NewUpdatePipeline(db)
		start := time.Now()
		var wg sync.WaitGroup
		stop := make(chan struct{})
		if maintain != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tick := time.NewTicker(20 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						maintain()
					}
				}
			}()
		}
		var uwg sync.WaitGroup
		for w := 0; w < workers; w++ {
			uwg.Add(1)
			go func(w int) {
				defer uwg.Done()
				wrng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < opsPerWorker; i++ {
					s := ss[wrng.Intn(len(ss))]
					s.Pos = geo.Pt(wrng.Float64()*side, wrng.Float64()*side)
					pipe.Put(s)
				}
			}(w)
		}
		uwg.Wait()
		rate := float64(workers*opsPerWorker) / time.Since(start).Seconds()
		close(stop)
		wg.Wait()
		return rate
	}

	percentiles := func(lat []time.Duration) (p50, p99 time.Duration) {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)/2], lat[len(lat)*99/100]
	}

	ss := newSightings(objects)

	// Baseline: the all-RAM sharded store with durable per-shard logs —
	// what a leaf runs today when the working set fits in memory.
	baseDir, err := os.MkdirTemp("", "lsbench-lsm-base")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(baseDir)
	baseWAL, err := store.OpenShardedWAL(baseDir, shards)
	if err != nil {
		fatal(err)
	}
	baseDB := store.NewShardedSightingDB(store.WithSightingWAL(baseWAL))
	baseUpd := loadAndHammer(baseDB, ss, nil)

	// Tiered store under the same workload.
	tierDir, err := os.MkdirTemp("", "lsbench-lsm-tier")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tierDir)
	tierWAL, err := store.OpenShardedWAL(tierDir, shards)
	if err != nil {
		fatal(err)
	}
	tierDB := store.NewShardedSightingDB(
		store.WithSightingWAL(tierWAL),
		store.WithTiering(store.TierConfig{MemtableBytes: budget}))
	if err := tierDB.Recover(); err != nil {
		fatal(err)
	}
	tierUpd := loadAndHammer(tierDB, ss, func() {
		if merr := tierDB.MaintainTiers(); merr != nil {
			fatal(merr)
		}
	})
	if err := tierDB.MaintainTiers(); err != nil {
		fatal(err)
	}
	st := tierDB.TierStats()

	fmt.Printf("%-34s %14s\n", "updates (8 workers, pipeline)", "upd/s")
	fmt.Printf("%-34s %14.0f\n", "all-RAM + WAL (baseline)", baseUpd)
	fmt.Printf("%-34s %14.0f\n\n", "tiered (dataset 4x memtable)", tierUpd)
	fmt.Printf("tier state after load: %d runs, %d KiB on disk, memtables %d KiB resident, run metadata %d KiB resident\n",
		st.Runs, st.RunBytes>>10, st.MemtableBytes>>10, st.MetaBytes>>10)
	fmt.Printf("flushes %d, compactions %d, disk records %d (%d live)\n\n",
		st.Flushes, st.Compactions, st.DiskRecords, st.DiskLive)

	// Point lookups. Hot: re-put a small subset so it resides in the
	// memtables, then query it. Cold: uniform over the whole population —
	// with a 4x dataset most probes fall through to the runs.
	hotN := objects / 20
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < hotN; i++ {
		s := ss[i]
		s.Pos = geo.Pt(rng.Float64()*side, rng.Float64()*side)
		tierDB.Put(s)
	}
	measureGets := func(db *store.ShardedSightingDB, pick func(*rand.Rand) core.OID) (p50, p99 time.Duration, missed int) {
		lrng := rand.New(rand.NewSource(9))
		lat := make([]time.Duration, lookups)
		for i := range lat {
			id := pick(lrng)
			t0 := time.Now()
			if _, ok := db.Get(id); !ok {
				missed++
			}
			lat[i] = time.Since(t0)
		}
		p50, p99 = percentiles(lat)
		return p50, p99, missed
	}
	pre := tierDB.TierStats()
	hot50, hot99, _ := measureGets(tierDB, func(r *rand.Rand) core.OID { return ss[r.Intn(hotN)].OID })
	cold50, cold99, _ := measureGets(tierDB, func(r *rand.Rand) core.OID { return ss[r.Intn(objects)].OID })
	post := tierDB.TierStats()
	probes := float64(post.BloomHits-pre.BloomHits) / float64(2*lookups)
	base50, base99, _ := measureGets(baseDB, func(r *rand.Rand) core.OID { return ss[r.Intn(objects)].OID })

	fmt.Printf("%-34s %12s %12s\n", "point lookup", "p50", "p99")
	fmt.Printf("%-34s %12v %12v\n", "all-RAM + WAL (baseline)", base50, base99)
	fmt.Printf("%-34s %12v %12v\n", "tiered, hot (memtable)", hot50, hot99)
	fmt.Printf("%-34s %12v %12v\n", "tiered, cold (uniform)", cold50, cold99)
	fmt.Printf("bloom-admitted run probes per lookup: %.2f (target <= 1)\n\n", probes)

	// Cold range queries: square windows placed uniformly over the area.
	// With three quarters of the records run-resident, nearly every answer
	// comes out of the runs' spatial leaves.
	rangeQueries := lookups / 50
	fmt.Printf("%-34s %12s %12s %14s %14s\n", "cold range query", "p50", "p99", "leaves/query", "records/query")
	for _, width := range []float64{200, 1000} {
		qrng := rand.New(rand.NewSource(11))
		lat := make([]time.Duration, rangeQueries)
		records := 0
		leaves0 := tierDB.TierStats().LeafReads
		for i := range lat {
			x, y := qrng.Float64()*(side-width), qrng.Float64()*(side-width)
			t0 := time.Now()
			tierDB.SearchArea(geo.R(x, y, x+width, y+width), func(core.Sighting) bool { records++; return true })
			lat[i] = time.Since(t0)
		}
		p50, p99 := percentiles(lat)
		leaves := tierDB.TierStats().LeafReads - leaves0
		fmt.Printf("%-34s %12v %12v %14.1f %14.1f\n", fmt.Sprintf("tiered, %.0f m window", width), p50, p99,
			float64(leaves)/float64(rangeQueries), float64(records)/float64(rangeQueries))
	}
	if errs := tierDB.TierStats().ReadErrors; errs != 0 {
		fatal(fmt.Errorf("table L: %d tier read errors", errs))
	}
	fmt.Println()

	// Recovery: a populated leaf restarts. The baseline folds its full
	// WAL; the tiered store opens run footers and replays only the tail
	// covering the current memtables.
	recoverRun := func(tiered bool) (time.Duration, int) {
		dir, derr := os.MkdirTemp("", "lsbench-lsm-rec")
		if derr != nil {
			fatal(derr)
		}
		defer os.RemoveAll(dir)
		wal, werr := store.OpenShardedWAL(dir, shards)
		if werr != nil {
			fatal(werr)
		}
		sopts := []store.SightingDBOption{store.WithSightingWAL(wal)}
		if tiered {
			sopts = append(sopts, store.WithTiering(store.TierConfig{MemtableBytes: budget}))
		}
		db := store.NewShardedSightingDB(sopts...)
		if rerr := db.Recover(); rerr != nil {
			fatal(rerr)
		}
		pop := newSightings(recoverPop)
		for _, s := range pop {
			db.Put(s)
		}
		if tiered {
			if merr := db.MaintainTiers(); merr != nil {
				fatal(merr)
			}
		}
		if ferr := wal.Flush(); ferr != nil {
			fatal(ferr)
		}
		wal.Close()

		wal2, werr := store.OpenShardedWAL(dir, shards)
		if werr != nil {
			fatal(werr)
		}
		defer wal2.Close()
		sopts2 := []store.SightingDBOption{store.WithSightingWAL(wal2)}
		if tiered {
			sopts2 = append(sopts2, store.WithTiering(store.TierConfig{MemtableBytes: budget}))
		}
		db2 := store.NewShardedSightingDB(sopts2...)
		start := time.Now()
		if rerr := db2.Recover(); rerr != nil {
			fatal(rerr)
		}
		return time.Since(start), db2.Len()
	}
	fullDur, fullLen := recoverRun(false)
	tailDur, tailLen := recoverRun(true)
	fmt.Printf("%-44s %12s %12s\n", fmt.Sprintf("recovery (%d sightings)", recoverPop), "time", "recovered")
	fmt.Printf("%-44s %12v %12d\n", "full-WAL replay (all-RAM baseline)", fullDur, fullLen)
	fmt.Printf("%-44s %12v %12d\n", "manifest open + WAL-tail replay (tiered)", tailDur, tailLen)
	if tailDur > 0 {
		fmt.Printf("speedup: %.1fx\n", fullDur.Seconds()/tailDur.Seconds())
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
