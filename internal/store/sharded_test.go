package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

func TestShardedSightingDBBasic(t *testing.T) {
	db := NewShardedSightingDB(WithShards(4))
	if db.NumShards() != 4 {
		t.Fatalf("NumShards = %d", db.NumShards())
	}
	for i := 0; i < 40; i++ {
		db.Put(sighting(fmt.Sprintf("o%d", i), float64(i), float64(i)))
	}
	if db.Len() != 40 {
		t.Fatalf("Len = %d", db.Len())
	}
	got, ok := db.Get("o7")
	if !ok || got.Pos != geo.Pt(7, 7) {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if !removed(db, "o7") || removed(db, "o7") {
		t.Error("Remove / double-Remove misbehaved")
	}
	count := 0
	db.ForEach(func(core.Sighting) bool { count++; return true })
	if count != 39 {
		t.Errorf("ForEach visited %d", count)
	}
	count = 0
	db.ForEach(func(core.Sighting) bool { count++; return false })
	if count != 1 {
		t.Errorf("ForEach early stop visited %d", count)
	}
	if got := db.String(); got != "ShardedSightingDB(4 shards, 39 records)" {
		t.Errorf("String = %q", got)
	}
}

func TestShardedPutBatchCoalesces(t *testing.T) {
	db := NewShardedSightingDB(WithShards(4))
	// Three updates of the same object in one batch: only the last
	// position must survive, and the superseded ones must not linger in
	// the spatial index.
	db.PutBatch([]core.Sighting{
		sighting("a", 1, 1),
		sighting("b", 2, 2),
		sighting("a", 50, 50),
		sighting("a", 90, 90),
	}, nil)
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
	if s, _ := db.Get("a"); s.Pos != geo.Pt(90, 90) {
		t.Errorf("a at %v, want (90,90)", s.Pos)
	}
	var hits []core.OID
	db.SearchArea(geo.R(0, 0, 60, 60), func(s core.Sighting) bool {
		hits = append(hits, s.OID)
		return true
	})
	if len(hits) != 1 || hits[0] != "b" {
		t.Errorf("SearchArea = %v, want [b] (stale positions of a indexed?)", hits)
	}
}

func TestShardedExpiry(t *testing.T) {
	now := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	db := NewShardedSightingDB(WithShards(4), WithTTL(30*time.Second), WithClock(clock))
	for i := 0; i < 16; i++ {
		db.Put(sighting(fmt.Sprintf("o%d", i), float64(i), float64(i)))
	}
	if got := db.Expired(); len(got) != 0 {
		t.Fatalf("expired immediately: %v", got)
	}
	advance(20 * time.Second)
	db.Put(sighting("o3", 3, 3)) // refresh one record
	advance(20 * time.Second)
	got := db.Expired()
	found := map[core.OID]bool{}
	for _, id := range got {
		found[id] = true
	}
	if len(got) != 15 || len(found) != 15 || found["o3"] {
		t.Errorf("Expired found %d records (%d distinct, o3: %v), want 15 without o3", len(got), len(found), found["o3"])
	}
}

// TestShardedExpiredMatchesOracle: a full Expired scan reports exactly what
// the oracle calls expired — every id once, refreshed records left out —
// at one shard and at four.
func TestShardedExpiredMatchesOracle(t *testing.T) {
	for _, shards := range []int{1, 4} {
		now := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
		clock := func() time.Time { return now } // single goroutine
		db := NewShardedSightingDB(WithShards(shards), WithTTL(time.Second), WithClock(clock))
		oracle := newOracleTTL(time.Second, clock)
		for i := 0; i < 12; i++ {
			s := sighting(fmt.Sprintf("o%d", i), float64(i), 0)
			db.Put(s)
			oracle.Put(s)
		}
		now = now.Add(time.Minute)
		for i := 0; i < 12; i += 3 { // refreshed after their leases ran out
			s := sighting(fmt.Sprintf("o%d", i), float64(i), 1)
			db.Put(s)
			oracle.Put(s)
		}
		got, want := db.Expired(), oracle.Expired()
		sortOIDs(got)
		sortOIDs(want)
		if len(want) != 8 || !equalOIDs(got, want) { // sorted, so a repeated id shows here
			t.Errorf("shards=%d: Expired = %v, oracle's %v (want 8 ids)", shards, got, want)
		}
	}
}

// TestRemoveExpiredGuardsRefresh: Deregister(id, true) must be a no-op for a
// record refreshed after the expiry observation — the race the janitor
// acts under — and agree with the oracle throughout.
func TestRemoveExpiredGuardsRefresh(t *testing.T) {
	for _, shards := range []int{1, 4} {
		now := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
		clock := func() time.Time { return now } // single goroutine
		db := NewShardedSightingDB(WithShards(shards), WithTTL(30*time.Second), WithClock(clock))
		oracle := newOracleTTL(30*time.Second, clock)
		put := func(s core.Sighting) { db.Put(s); oracle.Put(s) }
		put(sighting("x", 1, 1))
		put(sighting("y", 2, 2))
		now = now.Add(time.Minute)
		if got, want := db.Expired(), oracle.Expired(); len(got) != 2 || len(want) != 2 {
			t.Fatalf("shards=%d: Expired = %v, oracle %v", shards, got, want)
		}
		put(sighting("x", 1, 1)) // refreshed between observation and removal
		for id, want := range map[core.OID]bool{"x": false, "y": true, "missing": false} {
			got, _, removed, _ := db.Deregister(id, true)
			wantDelta, oracleRemoved := oracle.RemoveExpiredDelta(id)
			if removed != want || oracleRemoved != want || got != wantDelta {
				t.Errorf("shards=%d: Deregister(%s, expired) = %+v, %v; oracle %+v, %v; want removed=%v",
					shards, id, got, removed, wantDelta, oracleRemoved, want)
			}
		}
		if _, ok := db.Get("x"); !ok {
			t.Errorf("shards=%d: refreshed record gone", shards)
		}
	}
}

func sortOIDs(ids []core.OID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// collectArea runs a range query and returns the result as a sorted id list.
func collectArea(db sightingQueries, r geo.Rect) []core.OID {
	var out []core.OID
	db.SearchArea(r, func(s core.Sighting) bool {
		out = append(out, s.OID)
		return true
	})
	sortOIDs(out)
	return out
}

// collectNearest returns the first k (id, dist) pairs of the NN stream.
func collectNearest(db sightingQueries, p geo.Point, k int) []spatial.Neighbor {
	var out []spatial.Neighbor
	db.NearestFunc(p, func(s core.Sighting, dist float64) bool {
		out = append(out, spatial.Neighbor{ID: s.OID, Pos: s.Pos, Dist: dist})
		return len(out) < k
	})
	return out
}

func equalOIDs(a, b []core.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstOracle compares the store's range and NN results against the
// brute-force oracle holding the same records.
func checkAgainstOracle(t *testing.T, db sightingQueries, oracle *oracleStore, rng *rand.Rand, side float64) {
	t.Helper()
	if db.Len() != oracle.Len() {
		t.Fatalf("Len = %d, oracle %d", db.Len(), oracle.Len())
	}
	for q := 0; q < 8; q++ {
		x, y := rng.Float64()*side, rng.Float64()*side
		r := geo.R(x, y, x+side/4, y+side/4)
		if got, want := collectArea(db, r), collectArea(oracle, r); !equalOIDs(got, want) {
			t.Fatalf("SearchArea(%v) = %v, oracle %v", r, got, want)
		}
		p := geo.Pt(rng.Float64()*side, rng.Float64()*side)
		got := collectNearest(db, p, 10)
		want := collectNearest(oracle, p, 10)
		if len(got) != len(want) {
			t.Fatalf("NearestFunc returned %d entries, oracle %d", len(got), len(want))
		}
		for i := range got {
			// Distances must agree exactly; ids may differ only on ties.
			if got[i].Dist != want[i].Dist {
				t.Fatalf("NN stream dist[%d] = %v (id %s), oracle %v (id %s)",
					i, got[i].Dist, got[i].ID, want[i].Dist, want[i].ID)
			}
		}
	}
}

// TestShardedMatchesOracleRandomized applies the same randomized op
// sequence (puts, batched puts, removes) to a store — of one shard, the
// default layout, and of four — and to the brute-force oracle, checking
// that queries agree throughout and that every batch reports the coalesced
// deltas: one per object, from its pre-batch position to its final one.
func TestShardedMatchesOracleRandomized(t *testing.T) {
	const side = 100.0
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			db := NewShardedSightingDB(WithShards(shards))
			oracle := newOracle()
			for round := 0; round < 30; round++ {
				switch rng.Intn(3) {
				case 0:
					s := sighting(fmt.Sprintf("o%d", rng.Intn(60)), rng.Float64()*side, rng.Float64()*side)
					db.Put(s)
					oracle.Put(s)
				case 1:
					batch := make([]core.Sighting, 1+rng.Intn(20))
					for i := range batch {
						// Coarse grid provokes duplicate positions and
						// repeated ids inside one batch.
						batch[i] = sighting(fmt.Sprintf("o%d", rng.Intn(60)),
							float64(rng.Intn(20))*5, float64(rng.Intn(20))*5)
					}
					before := storeState(oracle)
					oracle.PutAll(batch)
					checkBatchDeltas(t, db.PutBatch(batch, []Delta{}), before, oracle)
				case 2:
					id := core.OID(fmt.Sprintf("o%d", rng.Intn(60)))
					if removed(db, id) != oracle.Remove(id) {
						t.Fatalf("Remove(%s) disagreed with oracle", id)
					}
				}
				checkAgainstOracle(t, db, oracle, rng, side)
			}
		})
	}
}

// checkBatchDeltas checks the deltas one batch put reported against the
// oracle's state before and after the batch: exactly one DeltaPut per
// object the batch touched, spanning its pre-batch position (if it had
// one) and its final one.
func checkBatchDeltas(t *testing.T, ds []Delta, before map[core.OID]core.Sighting, after *oracleStore) {
	t.Helper()
	seen := map[core.OID]bool{}
	for _, d := range ds {
		old, hadOld := before[d.OID]
		now, _ := after.Get(d.OID)
		if seen[d.OID] || d.Op != DeltaPut || d.HasOld != hadOld || (hadOld && d.Old != old.Pos) || d.New != now.Pos {
			t.Fatalf("delta %+v (repeated: %v): oracle had %+v (present %v) before the batch, %+v after", d, seen[d.OID], old, hadOld, now)
		}
		seen[d.OID] = true
	}
	for id, now := range storeState(after) {
		if now != before[id] && !seen[id] {
			t.Fatalf("no delta for %s, which the batch moved to %v", id, now.Pos)
		}
	}
}

// TestShardedConcurrentMatchesOracle is the concurrency property test of
// this PR: goroutines apply randomized batched updates concurrently — each
// goroutine owning a disjoint set of objects, so the final per-object state
// is deterministic — and after quiescing, sharded range and NN queries must
// return exactly what the single-threaded linear-scan oracle returns.
func TestShardedConcurrentMatchesOracle(t *testing.T) {
	const (
		side    = 1000.0
		workers = 8
	)
	perWorker := 40
	rounds := 30
	if testing.Short() {
		perWorker, rounds = 10, 8
	}
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := NewShardedSightingDB(WithShards(shards))
			pipe := NewUpdatePipeline(db)
			final := make([]core.Sighting, workers*perWorker)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for r := 0; r < rounds; r++ {
						if rng.Intn(2) == 0 {
							// One-at-a-time updates through the pipeline.
							for i := 0; i < perWorker; i++ {
								idx := w*perWorker + i
								s := sighting(fmt.Sprintf("o%d", idx), rng.Float64()*side, rng.Float64()*side)
								pipe.Put(s)
								final[idx] = s
							}
						} else {
							// Direct batch covering this worker's objects.
							batch := make([]core.Sighting, perWorker)
							for i := range batch {
								idx := w*perWorker + i
								batch[i] = sighting(fmt.Sprintf("o%d", idx), rng.Float64()*side, rng.Float64()*side)
								final[idx] = batch[i]
							}
							db.PutBatch(batch, nil)
						}
					}
				}(w)
			}
			wg.Wait()

			oracle := newOracle()
			for _, s := range final {
				oracle.Put(s)
			}
			checkAgainstOracle(t, db, oracle, rand.New(rand.NewSource(99)), side)
		})
	}
}

// TestShardedConcurrentHammer exercises every store operation from many
// goroutines at once; its value is running clean under `go test -race`.
func TestShardedConcurrentHammer(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	db := NewShardedSightingDB(WithShards(8), WithTTL(time.Minute))
	pipe := NewUpdatePipeline(db)
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("w%d-o%d", w%4, i%40)
				switch i % 8 {
				case 0, 1:
					pipe.Put(sighting(id, rng.Float64()*100, rng.Float64()*100))
				case 2:
					batch := make([]core.Sighting, 4)
					for j := range batch {
						batch[j] = sighting(fmt.Sprintf("w%d-o%d", w%4, rng.Intn(40)),
							rng.Float64()*100, rng.Float64()*100)
					}
					db.PutBatch(batch, nil)
				case 3:
					db.Get(core.OID(id))
				case 4:
					db.SearchArea(geo.R(0, 0, 50, 50), func(core.Sighting) bool { return true })
				case 5:
					n := 0
					db.NearestFunc(geo.Pt(50, 50), func(core.Sighting, float64) bool {
						n++
						return n < 5
					})
				case 6:
					db.Deregister(core.OID(fmt.Sprintf("w%d-o%d", w%4, rng.Intn(40))), false)
				case 7:
					db.Expired()
					if s, ok := db.Get(core.OID(id)); ok {
						db.Put(s)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShardedBoundPruningStaysExact drives the per-shard bounding
// rectangles through their whole lifecycle — growth under clustered
// inserts, staleness under mass removal, lazy re-tightening, emptying —
// and checks pruned SearchArea/NearestFunc answers against the linear
// oracle at every stage. Clustered corners make pruning actually fire:
// a wrongly tightened (or wrongly trusted) rectangle would drop results.
func TestShardedBoundPruningStaysExact(t *testing.T) {
	const side = 1000.0
	rng := rand.New(rand.NewSource(7))
	db := NewShardedSightingDB(WithShards(4))
	oracle := newOracle()
	put := func(id string, x, y float64) {
		s := sighting(id, x, y)
		db.Put(s)
		oracle.Put(s)
	}
	// Stage 1: two tight clusters in opposite corners.
	for i := 0; i < 200; i++ {
		put(fmt.Sprintf("a%d", i), rng.Float64()*50, rng.Float64()*50)
		put(fmt.Sprintf("b%d", i), side-rng.Float64()*50, side-rng.Float64()*50)
	}
	checkAgainstOracle(t, db, oracle, rng, side)
	// A query between the clusters must return nothing (every shard
	// bound misses it) without breaking later queries.
	mid := geo.R(side/2-100, side/2-100, side/2+100, side/2+100)
	if got := collectArea(db, mid); len(got) != 0 {
		t.Fatalf("mid-area search returned %d ids, want 0", len(got))
	}
	// Stage 2: remove one whole cluster — bounds go maximally stale,
	// then tighten lazily as removals outnumber live records.
	for i := 0; i < 200; i++ {
		id := core.OID(fmt.Sprintf("b%d", i))
		if removed(db, id) != oracle.Remove(id) {
			t.Fatalf("Remove(%s) disagreed with oracle", id)
		}
	}
	checkAgainstOracle(t, db, oracle, rng, side)
	// Stage 3: refill near the emptied corner; grown bounds must cover it.
	for i := 0; i < 100; i++ {
		put(fmt.Sprintf("c%d", i), side-rng.Float64()*30, rng.Float64()*30)
	}
	checkAgainstOracle(t, db, oracle, rng, side)
	// Stage 4: empty the store completely; every query must see nothing.
	var all []core.OID
	db.ForEach(func(s core.Sighting) bool { all = append(all, s.OID); return true })
	for _, id := range all {
		if removed(db, id) != oracle.Remove(id) {
			t.Fatalf("Remove(%s) disagreed with oracle", id)
		}
	}
	if db.Len() != 0 {
		t.Fatalf("Len = %d after emptying", db.Len())
	}
	if got := collectArea(db, geo.R(0, 0, side, side)); len(got) != 0 {
		t.Fatalf("search on empty store returned %d ids", len(got))
	}
	got := collectNearest(db, geo.Pt(1, 1), 5)
	if len(got) != 0 {
		t.Fatalf("nearest on empty store returned %d entries", len(got))
	}
}

func TestNormalizeShards(t *testing.T) {
	for _, tc := range []struct {
		in, want int
		wantErr  bool
	}{
		{in: -1, wantErr: true},
		{in: -100, wantErr: true},
		{in: 0, want: 1},
		{in: 1, want: 1},
		{in: 64, want: 64},
	} {
		got, err := NormalizeShards(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("NormalizeShards(%d) = %d, want error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("NormalizeShards(%d) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

// TestShardContentionSampling: the contended counter must move under real
// lock contention and stay commensurate with ops.
func TestShardContentionSampling(t *testing.T) {
	db := NewShardedSightingDB(WithShards(1))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				db.Put(sighting(fmt.Sprintf("w%d-o%d", w, i%10), float64(i%100), 0))
			}
		}(w)
	}
	wg.Wait()
	stats := db.ShardStats()
	if len(stats) != 1 {
		t.Fatalf("ShardStats len = %d", len(stats))
	}
	if stats[0].Ops < 4000 {
		t.Errorf("ops = %d, want >= 4000", stats[0].Ops)
	}
	if stats[0].Contended > stats[0].Ops {
		t.Errorf("contended %d > ops %d", stats[0].Contended, stats[0].Ops)
	}
	if stats[0].Len != 80 {
		t.Errorf("Len = %d, want 80", stats[0].Len)
	}
}

// TestShardedSightingDBBytesPerObject bounds a leaf store's memory per
// object: one shard, no log, 40 000 objects either sighted only (store-level
// puts) or registered as a leaf registers them. Each object is one record in
// the shard's hash index, holding its sighting and its registration, plus
// one quadtree item: ≈ 211 and ≈ 259 B on amd64, and the ceilings sit 5 %
// above. Three maps (a sighting entry with time.Time fields, a registration
// table, a tombstone set) took ≈ 243 and ≈ 401 B.
func TestShardedSightingDBBytesPerObject(t *testing.T) {
	const n = 40_000
	ids := make([]core.OID, n)
	for i := range ids {
		ids[i] = core.OID(fmt.Sprintf("o%06d", i))
	}
	rng := rand.New(rand.NewSource(1))
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
	}
	t0 := time.Date(2026, 10, 18, 9, 0, 0, 0, time.UTC)
	info := core.RegInfo{Registrant: "c1", DesAcc: 10, MinAcc: 50, MaxSpeed: 3}
	for _, tc := range []struct {
		name       string
		registered bool
		ceiling    float64
	}{
		{"sighted", false, 222},
		{"registered", true, 272},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			db := NewShardedSightingDB()
			for i, id := range ids {
				s := core.Sighting{OID: id, T: t0.Add(time.Duration(i)), Pos: pos[i], SensAcc: 5}
				if !tc.registered {
					db.Put(s)
					continue
				}
				if _, err := db.Register(s, Registration{RegInfo: info, OfferedAcc: 10, PathT: s.T}); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			perObject := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
			t.Logf("%.1f B per %s object", perObject, tc.name)
			if perObject > tc.ceiling {
				t.Errorf("%.1f B per %s object, ceiling %.0f", perObject, tc.name, tc.ceiling)
			}
			runtime.KeepAlive(db)
		})
	}
	runtime.KeepAlive(ids)
}
