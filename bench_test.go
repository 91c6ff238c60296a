// Benchmarks regenerating the paper's evaluation (Section 7). The paper's
// value follows each name. Absolute numbers differ from the paper's 2001
// hardware; the shape — updates cheaper than range queries, position
// queries cheapest, local ≪ remote, larger areas slower — is what the
// reproduction checks.
//
// Table 1 (throughput of the data-storage component in operations/s;
// 10 km × 10 km service area, 25 000 tracked objects):
//
//	BenchmarkTable1IndexCreation      — "creating index"                24 015
//	BenchmarkTable1PositionUpdate     — "position updates"              41 494
//	BenchmarkTable1PositionQuery      — "position query"               384 615
//	BenchmarkTable1RangeQuery/10m     — "range query (10 m × 10 m)"     21 834
//	BenchmarkTable1RangeQuery/100m    — "range query (100 m × 100 m)"   18 450
//	BenchmarkTable1RangeQuery/1km     — "range query (1 km × 1 km)"      1 813
//
// Table 2 (response time and throughput on the distributed configuration;
// 1.5 km × 1.5 km, one root plus four leaf servers, 10 000 objects). Each
// case's "seq" sub-benchmark's ns/op is the response time, its "parallel"
// one the throughput of 24 concurrent clients (ops/s):
//
//	BenchmarkTable2Update                    — "position updates (with ACK)"     1.2 ms, 4 954/s
//	BenchmarkTable2PosQueryLocal             — "local position query"            2.0 ms, 2 809/s
//	BenchmarkTable2PosQueryRemote            — "remote position query"           6.3 ms,   728/s
//	BenchmarkTable2RangeQueryLocal           — "local range query"               5.1 ms, 1 927/s
//	BenchmarkTable2RangeQueryRemote/1server  — "remote range query (1 server)"  13.0 ms,   588/s
//	BenchmarkTable2RangeQueryRemote/2servers — "remote range query (2 servers)" 14.6 ms,   364/s
//	BenchmarkTable2RangeQueryRemote/4servers — "remote range query (4 servers)" 13.8 ms,   284/s
//
// BenchmarkTable2RangeQueryRemote/4servers-300m has no counterpart in the
// paper: its 300 m square returns hundreds of objects, so its B/op shows
// what assembling a large answer from four leaves costs.
//
// BenchmarkCacheAblation is ablation A2's response time with the Section
// 6.5 caches off and on. The message counts behind A2, the hierarchy shape
// sweep A3 and the query-locality sweep A5 are exact, so they are asserted
// by internal/server's TestShapeMessageCounts; a leaf's kill and restart
// from its own logs is internal/hierarchy's BenchmarkLeafFailover.
package locsvc_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locsvc"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/spatial"
	"locsvc/internal/store"
	"locsvc/internal/wire"
)

// ---------------------------------------------------------------------------
// Table 1: data-storage component on a single node.

const (
	table1Objects  = 25_000
	table1AreaSide = 10_000.0 // 10 km
)

// newTable1DB loads a sighting database with the paper's Table 1 population.
func newTable1DB() (*store.ShardedSightingDB, []core.Sighting) {
	db := store.NewShardedSightingDB()
	rng := rand.New(rand.NewSource(1))
	sightings := make([]core.Sighting, table1Objects)
	now := time.Now()
	for i := range sightings {
		sightings[i] = core.Sighting{
			OID:     core.OID(fmt.Sprintf("obj-%d", i)),
			T:       now,
			Pos:     geo.Pt(rng.Float64()*table1AreaSide, rng.Float64()*table1AreaSide),
			SensAcc: 10,
		}
		db.Put(sightings[i])
	}
	return db, sightings
}

func BenchmarkTable1IndexCreation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sightings := make([]core.Sighting, table1Objects)
	now := time.Now()
	for i := range sightings {
		sightings[i] = core.Sighting{
			OID: core.OID(fmt.Sprintf("obj-%d", i)), T: now,
			Pos:     geo.Pt(rng.Float64()*table1AreaSide, rng.Float64()*table1AreaSide),
			SensAcc: 10,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := store.NewShardedSightingDB()
		for _, s := range sightings {
			db.Put(s)
		}
	}
	insertsPerSec := float64(b.N) * table1Objects / b.Elapsed().Seconds()
	b.ReportMetric(insertsPerSec, "inserts/s")
}

func BenchmarkTable1PositionUpdate(b *testing.B) {
	db, sightings := newTable1DB()
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sightings[rng.Intn(len(sightings))]
		s.Pos = geo.Pt(rng.Float64()*table1AreaSide, rng.Float64()*table1AreaSide)
		db.Put(s)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

func BenchmarkTable1PositionQuery(b *testing.B) {
	db, sightings := newTable1DB()
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := db.Get(sightings[rng.Intn(len(sightings))].OID); !ok {
			b.Fatal("object vanished")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// storageRangeQuery runs the leaf-storage part of a range query: spatial
// index search over the enlarged bounds plus the exact overlap filter —
// the work the paper's Table 1 measures.
func storageRangeQuery(db *store.ShardedSightingDB, area core.Area, reqAcc, reqOverlap float64) int {
	enlarged := area.Bounds().Enlarge(reqAcc)
	n := 0
	db.SearchArea(enlarged, func(s core.Sighting) bool {
		ld := core.LocationDescriptor{Pos: s.Pos, Acc: s.SensAcc}
		if area.RangeQualifies(ld, reqAcc, reqOverlap) {
			n++
		}
		return true
	})
	return n
}

func BenchmarkTable1RangeQuery(b *testing.B) {
	db, _ := newTable1DB()
	for _, bc := range []struct {
		name string
		side float64
	}{
		{"10m", 10},
		{"100m", 100},
		{"1km", 1000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			b.ResetTimer()
			found := 0
			for i := 0; i < b.N; i++ {
				x := rng.Float64() * (table1AreaSide - bc.side)
				y := rng.Float64() * (table1AreaSide - bc.side)
				area := core.AreaFromRect(geo.R(x, y, x+bc.side, y+bc.side))
				found += storageRangeQuery(db, area, 25, 0.5)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(found)/float64(b.N), "objs/query")
		})
	}
}

// ---------------------------------------------------------------------------
// Table 2: the distributed configuration. The five SUN workstations on
// 100 Mbit Ethernet become goroutine servers with a synthetic per-hop
// latency, preserving hop counts and the local/remote shape.

const table2HopLatency = 200 * time.Microsecond

type table2World struct {
	svc     *locsvc.Service
	objects []*locsvc.TrackedObject
	objPos  []locsvc.Point
	// clients[i] is pinned to leaf i (r.0 … r.3).
	clients []*locsvc.Client
}

var (
	table2Once sync.Once
	table2     *table2World
	table2Err  error
)

// getTable2World builds the 10 000-object deployment once per benchmark
// process.
func getTable2World(b *testing.B) *table2World {
	b.Helper()
	table2Once.Do(func() {
		svc, err := locsvc.NewLocal(locsvc.LocalConfig{
			Area:       locsvc.R(0, 0, 1500, 1500),
			Levels:     []locsvc.Level{{Rows: 2, Cols: 2}},
			HopLatency: table2HopLatency,
		})
		if err != nil {
			table2Err = err
			return
		}
		w := &table2World{svc: svc}
		ctx := context.Background()
		// One registering client per quadrant keeps registration local.
		regClients := map[locsvc.NodeID]*locsvc.Client{}
		for i, corner := range []locsvc.Point{
			locsvc.Pt(10, 10), locsvc.Pt(1490, 10), locsvc.Pt(10, 1490), locsvc.Pt(1490, 1490),
		} {
			c, cerr := svc.NewClientAt(fmt.Sprintf("bench-client-%d", i), corner)
			if cerr != nil {
				table2Err = cerr
				return
			}
			entry, _ := svc.EntryFor(corner)
			regClients[entry] = c
			w.clients = append(w.clients, c)
		}
		rng := rand.New(rand.NewSource(5))
		now := time.Now()
		for i := 0; i < 10_000; i++ {
			p := locsvc.Pt(rng.Float64()*1499, rng.Float64()*1499)
			entry, _ := svc.EntryFor(p)
			obj, rerr := regClients[entry].Register(ctx, locsvc.Sighting{
				OID: locsvc.OID(fmt.Sprintf("t2-%d", i)), T: now, Pos: p, SensAcc: 5,
			}, 25, 100, 3)
			if rerr != nil {
				table2Err = rerr
				return
			}
			w.objects = append(w.objects, obj)
			w.objPos = append(w.objPos, p)
		}
		// Let createPath propagation quiesce: the facade signals nothing,
		// and querying all 10 000 objects remotely would take longer.
		time.Sleep(500 * time.Millisecond)
		table2 = w
	})
	if table2Err != nil {
		b.Fatalf("building table 2 world: %v", table2Err)
	}
	return table2
}

// leafOf returns the quadrant index (0-3) of a position.
func leafOf(p locsvc.Point) int {
	q := 0
	if p.X >= 750 {
		q++
	}
	if p.Y >= 750 {
		q += 2
	}
	return q
}

// table2Workers is the parallel load behind Table 2's throughput column.
const table2Workers = 24

// table2Case runs op as Table 2's two columns: "seq" issues one operation
// at a time, so its ns/op is the response time, "parallel" issues them from
// table2Workers goroutines at once (at least that many where GOMAXPROCS
// does not divide it) and reports the throughput.
func table2Case(b *testing.B, seed int64, op func(ctx context.Context, rng *rand.Rand) error) {
	ctx := context.Background()
	b.Run("seq", func(b *testing.B) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < b.N; i++ {
			if err := op(ctx, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		procs := runtime.GOMAXPROCS(0)
		b.SetParallelism((table2Workers + procs - 1) / procs)
		b.RunParallel(func(pb *testing.PB) {
			rng := benchRng()
			for pb.Next() {
				if err := op(ctx, rng); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	})
}

func BenchmarkTable2Update(b *testing.B) {
	w := getTable2World(b)
	table2Case(b, 6, func(ctx context.Context, rng *rand.Rand) error {
		idx := rng.Intn(len(w.objects))
		obj := w.objects[idx]
		base := w.objPos[idx]
		p := locsvc.Pt(clampF(base.X+rng.Float64()*10-5, 0, 1499), clampF(base.Y+rng.Float64()*10-5, 0, 1499))
		// Keep the object in its quadrant so updates stay local, as in
		// the paper's Table 2 setup.
		if leafOf(p) != leafOf(base) {
			p = base
		}
		return obj.Update(ctx, locsvc.Sighting{OID: obj.OID(), T: time.Now(), Pos: p, SensAcc: 5})
	})
}

// posQueryFrom0 is a position query through the client pinned to r.0 for
// a random object of quadrant q.
func posQueryFrom0(w *table2World, q int) func(ctx context.Context, rng *rand.Rand) error {
	var in []int
	for i, p := range w.objPos {
		if leafOf(p) == q {
			in = append(in, i)
		}
	}
	return func(ctx context.Context, rng *rand.Rand) error {
		_, err := w.clients[0].PosQuery(ctx, w.objects[in[rng.Intn(len(in))]].OID())
		return err
	}
}

func BenchmarkTable2PosQueryLocal(b *testing.B) {
	table2Case(b, 7, posQueryFrom0(getTable2World(b), 0))
}

func BenchmarkTable2PosQueryRemote(b *testing.B) {
	table2Case(b, 8, posQueryFrom0(getTable2World(b), 3))
}

func BenchmarkTable2RangeQueryLocal(b *testing.B) {
	w := getTable2World(b)
	table2Case(b, 9, func(ctx context.Context, rng *rand.Rand) error {
		// 50 m × 50 m inside quadrant 0 (the paper's medium size).
		x := rng.Float64() * 650
		y := rng.Float64() * 650
		_, err := w.clients[0].RangeQueryRect(ctx, locsvc.R(x, y, x+50, y+50), 100, 0.5)
		return err
	})
}

func BenchmarkTable2RangeQueryRemote(b *testing.B) {
	w := getTable2World(b)
	cases := []struct {
		name string
		area locsvc.Rect
	}{
		// Entirely inside r.3 (one remote server).
		{"1server", locsvc.R(1000, 1000, 1050, 1050)},
		// Straddling r.1 and r.3 (two remote servers).
		{"2servers", locsvc.R(1000, 725, 1050, 775)},
		// Centered on the root midpoint (all four servers).
		{"4servers", locsvc.R(725, 725, 775, 775)},
		// A 300 m square on the root midpoint: ≈ 400 objects from all
		// four servers, a quarter of them the entry server's own.
		{"4servers-300m", locsvc.R(600, 600, 900, 900)},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			table2Case(b, 10, func(ctx context.Context, _ *rand.Rand) error {
				_, err := w.clients[0].RangeQueryRect(ctx, bc.area, 100, 0.5)
				return err
			})
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation A2: Section 6.5 caching for remote position queries.

func BenchmarkCacheAblation(b *testing.B) {
	for _, withCache := range []bool{false, true} {
		name := "nocache"
		if withCache {
			name = "cache"
		}
		b.Run(name, func(b *testing.B) {
			svc, err := locsvc.NewLocal(locsvc.LocalConfig{
				Area:         locsvc.R(0, 0, 1500, 1500),
				Levels:       []locsvc.Level{{Rows: 2, Cols: 2}},
				HopLatency:   table2HopLatency,
				EnableCaches: withCache,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			ctx := context.Background()
			owner, err := svc.NewClientAt("owner", locsvc.Pt(10, 10))
			if err != nil {
				b.Fatal(err)
			}
			defer owner.Close()
			const n = 64
			for i := 0; i < n; i++ {
				if _, err := owner.Register(ctx, locsvc.Sighting{
					OID: locsvc.OID(fmt.Sprintf("a-%d", i)), T: time.Now(),
					Pos: locsvc.Pt(10+float64(i), 10), SensAcc: 5,
				}, 25, 100, 3); err != nil {
					b.Fatal(err)
				}
			}
			remote, err := svc.NewClientAt("remote", locsvc.Pt(1490, 1490))
			if err != nil {
				b.Fatal(err)
			}
			defer remote.Close()
			// Every createPath has reached the root once the remote client
			// finds every object; until then a query is a definitive miss.
			settled := time.Now().Add(10 * time.Second)
			for i := 0; i < n; i++ {
				oid := locsvc.OID(fmt.Sprintf("a-%d", i))
				for _, err := remote.PosQuery(ctx, oid); err != nil; _, err = remote.PosQuery(ctx, oid) {
					if time.Now().After(settled) {
						b.Fatalf("%s not found remotely: %v", oid, err)
					}
				}
			}
			rng := rand.New(rand.NewSource(13))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oid := locsvc.OID(fmt.Sprintf("a-%d", rng.Intn(n)))
				if _, err := remote.PosQuery(ctx, oid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Sharded store: parallel throughput of the concurrent sighting store at
// 1/4/8 shards. Updates go through the batched UpdatePipeline (group commit
// per shard); queries fan out across shards and merge. A recorded run lives
// in BENCH_sharded_store.json (its baseline-singlelock rows are a store
// that no longer exists).

var shardBenchSeed atomic.Int64

// benchRng hands every RunParallel goroutine its own seeded source.
func benchRng() *rand.Rand {
	return rand.New(rand.NewSource(shardBenchSeed.Add(1)))
}

// shardBenchCounts are the shard counts under comparison: one shard (the
// default layout) and increasing counts.
var shardBenchCounts = []int{1, 4, 8}

// loadShardBench fills db with the Table 1 population.
func loadShardBench(db *store.ShardedSightingDB) []core.Sighting {
	rng := rand.New(rand.NewSource(1))
	sightings := make([]core.Sighting, table1Objects)
	now := time.Now()
	for i := range sightings {
		sightings[i] = core.Sighting{
			OID: core.OID(fmt.Sprintf("obj-%d", i)), T: now,
			Pos:     geo.Pt(rng.Float64()*table1AreaSide, rng.Float64()*table1AreaSide),
			SensAcc: 10,
		}
		db.Put(sightings[i])
	}
	return sightings
}

func BenchmarkShardedUpdate(b *testing.B) {
	for _, shards := range shardBenchCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := store.NewShardedSightingDB(store.WithShards(shards))
			sightings := loadShardBench(db)
			pipe := store.NewUpdatePipeline(db)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := benchRng()
				for pb.Next() {
					s := sightings[rng.Intn(len(sightings))]
					s.Pos = geo.Pt(rng.Float64()*table1AreaSide, rng.Float64()*table1AreaSide)
					pipe.Put(s)
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
		})
	}
}

func BenchmarkShardedRangeQuery(b *testing.B) {
	for _, shards := range shardBenchCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := store.NewShardedSightingDB(store.WithShards(shards))
			loadShardBench(db)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := benchRng()
				for pb.Next() {
					x := rng.Float64() * (table1AreaSide - 100)
					y := rng.Float64() * (table1AreaSide - 100)
					area := core.AreaFromRect(geo.R(x, y, x+100, y+100))
					enlarged := area.Bounds().Enlarge(25)
					db.SearchArea(enlarged, func(s core.Sighting) bool {
						ld := core.LocationDescriptor{Pos: s.Pos, Acc: s.SensAcc}
						area.RangeQualifies(ld, 25, 0.5)
						return true
					})
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

func BenchmarkShardedNearest(b *testing.B) {
	for _, shards := range shardBenchCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := store.NewShardedSightingDB(store.WithShards(shards))
			loadShardBench(db)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := benchRng()
				for pb.Next() {
					p := geo.Pt(rng.Float64()*table1AreaSide, rng.Float64()*table1AreaSide)
					n := 0
					db.NearestFunc(p, func(core.Sighting, float64) bool {
						n++
						return n < 5
					})
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkShardedMixed is the paper-shaped workload: 90% updates, 10%
// range queries, all goroutines hammering one store.
func BenchmarkShardedMixed(b *testing.B) {
	for _, shards := range shardBenchCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := store.NewShardedSightingDB(store.WithShards(shards))
			sightings := loadShardBench(db)
			pipe := store.NewUpdatePipeline(db)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := benchRng()
				for pb.Next() {
					if rng.Intn(10) == 0 {
						x := rng.Float64() * (table1AreaSide - 100)
						y := rng.Float64() * (table1AreaSide - 100)
						db.SearchArea(geo.R(x, y, x+100, y+100), func(core.Sighting) bool { return true })
					} else {
						s := sightings[rng.Intn(len(sightings))]
						s.Pos = geo.Pt(rng.Float64()*table1AreaSide, rng.Float64()*table1AreaSide)
						pipe.Put(s)
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// ---------------------------------------------------------------------------
// Sighting WAL: update-path overhead of durable per-shard logs, and the
// parallel-replay speedup of sharded recovery. A recorded run lives in
// BENCH_wal.json.

// BenchmarkWALUpdate measures the cost the per-shard sighting WAL adds to
// the batched update path at shards=8: no WAL, WAL with per-append flush
// (process-crash durability, the default) and WAL with fsync-per-append.
func BenchmarkWALUpdate(b *testing.B) {
	cases := []struct {
		name string
		wal  bool
		sync bool
	}{
		{"shards=8/nowal", false, false},
		{"shards=8/wal", true, false},
		{"shards=8/wal+sync", true, true},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			opts := []store.SightingDBOption{store.WithShards(8)}
			var w *store.ShardedWAL
			if bc.wal {
				var walOpts []store.FileWALOption
				if bc.sync {
					walOpts = append(walOpts, store.WithSync())
				}
				var err error
				w, err = store.OpenShardedWAL(b.TempDir(), 8, walOpts...)
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				opts = append(opts, store.WithSightingWAL(w))
			}
			db := store.NewShardedSightingDB(opts...)
			sightings := loadShardBench(db)
			pipe := store.NewUpdatePipeline(db)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := benchRng()
				for pb.Next() {
					s := sightings[rng.Intn(len(sightings))]
					s.Pos = geo.Pt(rng.Float64()*table1AreaSide, rng.Float64()*table1AreaSide)
					pipe.Put(s)
				}
			})
			b.StopTimer()
			if w != nil {
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
		})
	}
}

// BenchmarkWALReplay measures crash recovery: replaying the same 25k-object
// history from one serial log versus eight per-shard logs recovered in
// parallel (each bulk-loading its spatial index). Each iteration recovers
// a fresh copy of the golden log — Recover auto-compacts a churn-heavy
// log, so reusing one directory would measure snapshot replay after the
// first iteration.
func BenchmarkWALReplay(b *testing.B) {
	copyDir := func(src, dst string) {
		b.Helper()
		entries, err := os.ReadDir(src)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			dir := b.TempDir()
			w, err := store.OpenShardedWAL(dir, shards)
			if err != nil {
				b.Fatal(err)
			}
			db := store.NewShardedSightingDB(store.WithSightingWAL(w))
			loadShardBench(db)
			// A second round of updates so replay does real supersede work.
			rng := rand.New(rand.NewSource(21))
			batch := make([]core.Sighting, 0, 256)
			for i := 0; i < table1Objects; i++ {
				batch = append(batch, core.Sighting{
					OID: core.OID(fmt.Sprintf("obj-%d", rng.Intn(table1Objects))),
					Pos: geo.Pt(rng.Float64()*table1AreaSide, rng.Float64()*table1AreaSide),
				})
				if len(batch) == cap(batch) {
					db.PutBatch(batch, nil)
					batch = batch[:0]
				}
			}
			db.PutBatch(batch, nil)
			if err := db.WALErr(); err != nil {
				b.Fatal(err)
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := b.TempDir()
				copyDir(dir, fresh)
				b.StartTimer()
				w2, err := store.OpenShardedWAL(fresh, shards)
				if err != nil {
					b.Fatal(err)
				}
				db2 := store.NewShardedSightingDB(store.WithSightingWAL(w2))
				if err := db2.Recover(); err != nil {
					b.Fatal(err)
				}
				if db2.Len() != table1Objects {
					b.Fatalf("recovered %d records", db2.Len())
				}
				if err := w2.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(table1Objects)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ---------------------------------------------------------------------------
// Supporting micro-benchmarks: wire codec and nearest-neighbor query.

func BenchmarkWireCodec(b *testing.B) {
	env := msg.Envelope{From: "r.0", CorrID: 42, Msg: msg.RangeQuerySubRes{
		OpID: 7,
		Objs: []core.Entry{
			{OID: "a", LD: core.LocationDescriptor{Pos: geo.Pt(1, 2), Acc: 10}},
			{OID: "b", LD: core.LocationDescriptor{Pos: geo.Pt(3, 4), Acc: 10}},
			{OID: "c", LD: core.LocationDescriptor{Pos: geo.Pt(5, 6), Acc: 10}},
		},
		CoveredSize: 2500,
	}}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wire.Encode(env); err != nil {
				b.Fatal(err)
			}
		}
	})
	data, err := wire.Encode(env)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wire.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(len(data)), "bytes/msg")
}

func BenchmarkNeighborQuery(b *testing.B) {
	w := getTable2World(b)
	rng := rand.New(rand.NewSource(14))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := locsvc.Pt(rng.Float64()*1400, rng.Float64()*1400)
		if _, err := w.clients[0].NeighborQuery(ctx, p, 100, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNearestCursor measures the per-query cost of the resumable
// nearest-neighbor cursor on a single index: 5 neighbors off a 25k-entry
// population. Run with -benchmem — the typed traversal heap plus pooled
// cursors keep the steady state at a handful of allocations per query,
// where the container/heap implementation boxed every push.
func BenchmarkNearestCursor(b *testing.B) {
	ix := spatial.NewQuadtree()
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < table1Objects; i++ {
		ix.Insert(core.OID(fmt.Sprintf("o%d", i)),
			geo.Pt(rng.Float64()*table1AreaSide, rng.Float64()*table1AreaSide))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geo.Pt(rng.Float64()*table1AreaSide, rng.Float64()*table1AreaSide)
		c := ix.NearestCursor(p)
		for k := 0; k < 5; k++ {
			if _, ok := c.Next(); !ok {
				break
			}
		}
		c.Close()
	}
}

// BenchmarkIndexBulkLoad compares the balanced bulk construction used for
// crash recovery against one-by-one insertion (the Table 1 "creating
// index" path).
func BenchmarkIndexBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	items := make([]spatial.Item, table1Objects)
	for i := range items {
		items[i] = spatial.Item{
			ID:  core.OID(fmt.Sprintf("o%d", i)),
			Pos: geo.Pt(rng.Float64()*table1AreaSide, rng.Float64()*table1AreaSide),
		}
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qt := spatial.NewQuadtree()
			for _, it := range items {
				qt.Insert(it.ID, it.Pos)
			}
		}
	})
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spatial.NewQuadtree().Rebuild(items)
		}
	})
}
