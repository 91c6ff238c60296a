package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

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

// TestResizeQuiescent drives grow and shrink resizes on a quiescent store
// and checks every query surface against the brute-force oracle after each
// step, plus the epoch counter and the shard-count invariants.
func TestResizeQuiescent(t *testing.T) {
	const side = 1000.0
	rng := rand.New(rand.NewSource(3))
	db := NewShardedSightingDB(WithShards(4))
	oracle := newOracle()
	for i := 0; i < 500; i++ {
		s := sighting(fmt.Sprintf("o%d", i), rng.Float64()*side, rng.Float64()*side)
		db.Put(s)
		oracle.Put(s)
	}
	if db.Epoch() != 0 {
		t.Fatalf("fresh store epoch = %d", db.Epoch())
	}
	for step, n := range []int{8, 3, 16, 1, 6} {
		if err := db.Resize(n); err != nil {
			t.Fatalf("Resize(%d): %v", n, err)
		}
		if db.NumShards() != n {
			t.Fatalf("NumShards = %d after Resize(%d)", db.NumShards(), n)
		}
		if got, want := db.Epoch(), uint64(step+1); got != want {
			t.Fatalf("epoch = %d after resize %d, want %d", got, step, want)
		}
		checkAgainstOracle(t, db, oracle, rng, side)
		// Mutations after the resize must land in the new layout.
		s := sighting(fmt.Sprintf("post%d", step), rng.Float64()*side, rng.Float64()*side)
		db.Put(s)
		oracle.Put(s)
		id := core.OID(fmt.Sprintf("o%d", rng.Intn(500)))
		if db.Remove(id) != oracle.Remove(id) {
			t.Fatalf("Remove(%s) disagreed with oracle after resize", id)
		}
		checkAgainstOracle(t, db, oracle, rng, side)
	}
	if err := db.Resize(-2); err == nil {
		t.Fatal("Resize(-2) succeeded")
	}
	if err := db.Resize(0); err != nil || db.NumShards() != 1 {
		t.Fatalf("Resize(0) = %v, shards %d; want default 1", err, db.NumShards())
	}
}

// TestResizeOracleStress is the adversarial acceptance test of the live
// resize protocol: concurrent updaters (disjoint object sets, so final
// per-object state is deterministic), removers, range, NN and expiry-path
// readers hammer the store while the main goroutine drives it through
// grow and shrink resizes. Queries racing the migration must never see an
// object twice, never see a frozen (quiescent) object missing, and NN
// streams must stay distance-monotone. After quiescing, every query
// surface must match the brute-force oracle exactly.
func TestResizeOracleStress(t *testing.T) {
	const (
		side    = 1000.0
		workers = 6
	)
	perWorker := 40
	rounds := 60
	resizes := []int{8, 2, 12, 5}
	if testing.Short() {
		perWorker, rounds = 15, 20
		resizes = []int{8, 2, 5}
	}

	db := NewShardedSightingDB(WithShards(4), WithTTL(time.Hour))
	pipe := NewUpdatePipeline(db)

	// Frozen objects are written once before the chaos and never touched
	// again: any range query that misses one caught a hole in the epoch
	// protocol, whatever the timing.
	const frozen = 25
	frozenRect := geo.R(side+10, side+10, side+90, side+90) // outside the workers' area
	for i := 0; i < frozen; i++ {
		db.Put(sighting(fmt.Sprintf("frozen%d", i), side+10+float64(i*3), side+50))
	}

	final := make([]core.Sighting, workers*perWorker)
	removed := make([]atomic.Bool, workers*perWorker)
	stop := make(chan struct{})
	var mutWG, readWG sync.WaitGroup

	// Mutators: pipeline puts, direct batches, removals, touches.
	for w := 0; w < workers; w++ {
		mutWG.Add(1)
		go func(w int) {
			defer mutWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				switch rng.Intn(4) {
				case 0, 1:
					for i := 0; i < perWorker; i++ {
						idx := w*perWorker + i
						s := sighting(fmt.Sprintf("o%d", idx), rng.Float64()*side, rng.Float64()*side)
						pipe.Put(s)
						final[idx] = s
						removed[idx].Store(false)
					}
				case 2:
					batch := make([]core.Sighting, perWorker)
					for i := range batch {
						idx := w*perWorker + i
						batch[i] = sighting(fmt.Sprintf("o%d", idx), rng.Float64()*side, rng.Float64()*side)
						final[idx] = batch[i]
						removed[idx].Store(false)
					}
					db.PutBatch(batch)
				case 3:
					idx := w*perWorker + rng.Intn(perWorker)
					db.Remove(core.OID(fmt.Sprintf("o%d", idx)))
					removed[idx].Store(true)
				}
			}
		}(w)
	}

	// Readers: range queries over the frozen rectangle (no-miss, no-dup),
	// full-area searches (no-dup), NN streams (monotone, no-dup), and the
	// expiry observation paths.
	readErr := make(chan string, 8)
	report := func(msg string) {
		select {
		case readErr <- msg:
		default:
		}
	}
	for q := 0; q < 3; q++ {
		readWG.Add(1)
		go func(q int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(1000 + q)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				seen := make(map[core.OID]bool)
				db.SearchArea(frozenRect, func(s core.Sighting) bool {
					if seen[s.OID] {
						report(fmt.Sprintf("range query saw %s twice", s.OID))
					}
					seen[s.OID] = true
					return true
				})
				found := 0
				for id := range seen {
					if strings.HasPrefix(string(id), "frozen") {
						found++
					}
				}
				if found != frozen {
					report(fmt.Sprintf("range query saw %d/%d frozen objects", found, frozen))
				}

				seen = make(map[core.OID]bool)
				db.SearchArea(geo.R(0, 0, 2*side, 2*side), func(s core.Sighting) bool {
					if seen[s.OID] {
						report(fmt.Sprintf("full-area query saw %s twice", s.OID))
					}
					seen[s.OID] = true
					return true
				})

				// NN under concurrent mutation is a best-effort stream (a
				// concurrently updated entry may be yielded at both its
				// positions, resize or not — the documented cursor
				// contract), so only the distance-monotonicity guarantee
				// is asserted here; exact-set equality is checked after
				// quiescing.
				last := -1.0
				count := 0
				db.NearestFunc(geo.Pt(rng.Float64()*side, rng.Float64()*side), func(s core.Sighting, dist float64) bool {
					if dist < last {
						report(fmt.Sprintf("NN stream went backwards: %g after %g", dist, last))
					}
					last = dist
					count++
					return count < 50
				})

				db.SweepExpired(32)
				if ids := db.Expired(); len(ids) != 0 {
					report(fmt.Sprintf("Expired found %d ids under a 1h TTL", len(ids)))
				}
				db.Get(core.OID(fmt.Sprintf("o%d", rng.Intn(workers*perWorker))))
			}
		}(q)
	}

	// The resize driver: at least three live resizes, growing and
	// shrinking, racing everything above.
	for _, n := range resizes {
		time.Sleep(2 * time.Millisecond)
		if err := db.Resize(n); err != nil {
			t.Fatalf("Resize(%d): %v", n, err)
		}
	}

	// Let mutators finish, then stop the readers.
	mutWG.Wait()
	close(stop)
	readWG.Wait()
	select {
	case msg := <-readErr:
		t.Fatal(msg)
	default:
	}

	if got, want := db.NumShards(), resizes[len(resizes)-1]; got != want {
		t.Fatalf("NumShards = %d, want %d", got, want)
	}

	// Quiesced: the store must now equal the brute-force oracle built
	// from the deterministic final states.
	oracle := newOracle()
	for i := 0; i < frozen; i++ {
		oracle.Put(sighting(fmt.Sprintf("frozen%d", i), side+10+float64(i*3), side+50))
	}
	for idx, s := range final {
		if s.OID != "" && !removed[idx].Load() {
			oracle.Put(s)
		}
	}
	checkAgainstOracle(t, db, oracle, rand.New(rand.NewSource(99)), side)
}

// TestResizeExpiryAcrossResize: soft-state expiry must survive a resize —
// records carried into the new generation keep their expiration dates, and
// both the full scan and the budgeted sweep find them through the new
// mapping.
func TestResizeExpiryAcrossResize(t *testing.T) {
	now := time.Date(2026, 7, 28, 10, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	db := NewShardedSightingDB(WithShards(4), WithTTL(30*time.Second), WithClock(clock))
	for i := 0; i < 64; i++ {
		db.Put(sighting(fmt.Sprintf("o%d", i), float64(i), float64(i)))
	}
	mu.Lock()
	now = now.Add(20 * time.Second)
	mu.Unlock()
	db.Put(sighting("o3", 3, 3)) // refreshed: survives the first expiry wave

	if err := db.Resize(10); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(20 * time.Second)
	mu.Unlock()
	if got := db.Expired(); len(got) != 63 {
		t.Errorf("Expired after resize found %d, want 63", len(got))
	}
	found := map[core.OID]bool{}
	for i := 0; i < 40; i++ {
		for _, id := range db.SweepExpired(8) {
			found[id] = true
		}
	}
	if len(found) != 63 || found["o3"] {
		t.Errorf("sweep after resize found %d (o3: %v), want 63 without o3", len(found), found["o3"])
	}
	for id := range found {
		if _, ok := db.RemoveExpiredDelta(id); !ok {
			t.Errorf("RemoveExpiredDelta(%s) failed after resize", id)
		}
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d after expiring, want 1 (o3)", db.Len())
	}
}

// TestResizeWALRecovery: a resize re-cuts the persistent log under the new
// mapping (epoch-stamped segments); a crash after further mutations must
// recover — through the new layout — to exactly the live set, and the
// reopened WAL must remember the resized count regardless of what count
// the operator passes.
func TestResizeWALRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenShardedWAL(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := NewShardedSightingDB(WithSightingWAL(w))
	oracle := sightingOracle{}
	put := func(id string, x, y float64) {
		s := sighting(id, x, y)
		db.Put(s)
		oracle[s.OID] = s
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		put(fmt.Sprintf("pre%d", i), rng.Float64()*500, rng.Float64()*500)
	}
	for i := 0; i < 40; i++ {
		id := core.OID(fmt.Sprintf("pre%d", rng.Intn(200)))
		if db.Remove(id) {
			delete(oracle, id)
		}
	}
	if err := db.Resize(9); err != nil {
		t.Fatal(err)
	}
	if w.Epoch() != 1 || w.NumShards() != 9 {
		t.Fatalf("WAL at epoch %d / %d shards after resize, want 1 / 9", w.Epoch(), w.NumShards())
	}
	// Mutations after the epoch switch land in the new segments.
	for i := 0; i < 100; i++ {
		put(fmt.Sprintf("post%d", i), rng.Float64()*500, rng.Float64()*500)
	}
	for i := 0; i < 30; i++ {
		id := core.OID(fmt.Sprintf("pre%d", rng.Intn(200)))
		if db.Remove(id) {
			delete(oracle, id)
		}
	}
	// Shrink across another boundary, then a little more churn.
	if err := db.Resize(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		put(fmt.Sprintf("late%d", i), rng.Float64()*500, rng.Float64()*500)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // crash point: no compaction, no store shutdown
		t.Fatal(err)
	}

	// The operator flag says 4; the log knows better.
	w2, err := OpenShardedWAL(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.NumShards() != 3 || w2.Epoch() != 2 {
		t.Fatalf("reopened WAL at %d shards epoch %d, want 3 shards epoch 2", w2.NumShards(), w2.Epoch())
	}
	db2 := NewShardedSightingDB(WithSightingWAL(w2))
	if err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	expectRecovered(t, db2, oracle)
}

// TestResizeWALCrashMidSwitch reconstructs the on-disk state a crash in
// the middle of the per-shard epoch switch leaves behind — some shards
// already on their epoch-1 snapshot segments (with post-switch appends),
// the rest still spread over the epoch-0 layout — and verifies
// OpenShardedWAL folds across the boundary: epoch-1 segments are
// authoritative for their shards, the old segments fill in the rest, and
// the directory comes back single-epoch.
func TestResizeWALCrashMidSwitch(t *testing.T) {
	dir := t.TempDir()
	const oldCount, newCount = 4, 8
	w, err := OpenShardedWAL(dir, oldCount)
	if err != nil {
		t.Fatal(err)
	}
	oracle := sightingOracle{}
	rng := rand.New(rand.NewSource(7))
	var all []core.Sighting
	for i := 0; i < 120; i++ {
		s := sighting(fmt.Sprintf("o%d", i), rng.Float64()*300, rng.Float64()*300)
		all = append(all, s)
		if err := w.AppendPut(spatial.ShardFor(s.OID, oldCount), oldCount, s); err != nil {
			t.Fatal(err)
		}
		oracle[s.OID] = s
	}
	// A removal that must not resurrect.
	gone := all[17].OID
	if err := w.AppendRemove(spatial.ShardFor(gone, oldCount), oldCount, gone); err != nil {
		t.Fatal(err)
	}
	delete(oracle, gone)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-craft the half-switched epoch 1: shards 0..2 of the new layout
	// got their snapshot segments; the snapshot supersedes the old
	// records of their objects, including one object removed only in the
	// new segment and one updated only there.
	switched := map[int]bool{0: true, 1: true, 2: true}
	perShard := make(map[int][]core.Sighting)
	for id, s := range oracle {
		if j := spatial.ShardFor(id, newCount); switched[j] {
			perShard[j] = append(perShard[j], s)
		}
	}
	for j := range switched {
		seg, err := createEpochSegment(dir, j, 1, newCount, perShard[j], false)
		if err != nil {
			t.Fatal(err)
		}
		// Post-switch traffic: an update and a removal that exist only in
		// the new segment.
		for _, s := range perShard[j] {
			up := s
			up.Pos = geo.Pt(up.Pos.X+1, up.Pos.Y+1)
			if err := seg.Append(WALRecord{Op: WALSightingBatch, Sightings: []core.Sighting{up}}); err != nil {
				t.Fatal(err)
			}
			oracle[up.OID] = up
			break
		}
		if len(perShard[j]) > 1 {
			victim := perShard[j][1].OID
			if err := seg.Append(WALRecord{Op: WALSightingRemove, OID: victim}); err != nil {
				t.Fatal(err)
			}
			delete(oracle, victim)
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// An empty temp file a crashed switch may leave: must be ignored.
	if err := os.WriteFile(segmentPath(dir, 5, 1), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenShardedWAL(dir, oldCount)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.NumShards() != newCount || w2.Epoch() != 1 {
		t.Fatalf("folded WAL at %d shards epoch %d, want %d / 1", w2.NumShards(), w2.Epoch(), newCount)
	}
	db := NewShardedSightingDB(WithSightingWAL(w2))
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	expectRecovered(t, db, oracle)

	// The directory must be single-epoch now: no base-name segments left.
	for i := 0; i < oldCount; i++ {
		if _, err := os.Stat(segmentPath(dir, i, 0)); err == nil {
			t.Errorf("old epoch-0 segment %d survived the fold", i)
		}
	}
	for j := 0; j < newCount; j++ {
		if _, err := os.Stat(segmentPath(dir, j, 1)); err != nil {
			t.Errorf("epoch-1 segment %d missing after the fold: %v", j, err)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, ".wal-*"))
	if len(matches) != 0 {
		t.Errorf("leftover temporaries after fold: %v", matches)
	}
}

// TestResizeWALSyncMode runs a resize + recovery round-trip in the
// synchronous (WithSync) mode, whose append path skips the writer
// goroutines entirely.
func TestResizeWALSyncMode(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenShardedWAL(dir, 2, WithSync())
	if err != nil {
		t.Fatal(err)
	}
	db := NewShardedSightingDB(WithSightingWAL(w))
	oracle := sightingOracle{}
	for i := 0; i < 60; i++ {
		s := sighting(fmt.Sprintf("o%d", i), float64(i), float64(i%7))
		db.Put(s)
		oracle[s.OID] = s
	}
	if err := db.Resize(5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s := sighting(fmt.Sprintf("p%d", i), float64(i), 42)
		db.Put(s)
		oracle[s.OID] = s
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenShardedWAL(dir, 1, WithSync())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.NumShards() != 5 {
		t.Fatalf("NumShards = %d, want 5", w2.NumShards())
	}
	db2 := NewShardedSightingDB(WithSightingWAL(w2))
	if err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	expectRecovered(t, db2, oracle)
}

// TestPipelineFollowsResize: the update pipeline's lane array must follow
// the store through resizes — puts keep committing and the lane count
// converges to the new shard count.
func TestPipelineFollowsResize(t *testing.T) {
	db := NewShardedSightingDB(WithShards(2))
	pipe := NewUpdatePipeline(db)
	for i := 0; i < 20; i++ {
		pipe.Put(sighting(fmt.Sprintf("a%d", i), float64(i), 0))
	}
	if err := db.Resize(8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		pipe.Put(sighting(fmt.Sprintf("b%d", i), float64(i), 1))
	}
	if got := len(pipe.lanes.Load().l); got != 8 {
		t.Errorf("lane count = %d after resize, want 8", got)
	}
	if db.Len() != 40 {
		t.Errorf("Len = %d, want 40", db.Len())
	}
	ops, _ := pipe.Stats()
	if ops != 40 {
		t.Errorf("pipeline ops = %d, want 40", ops)
	}
}

// TestAutoShardPolicy exercises the decision rule: growth after Patience
// contended ticks, cooldown silence, shrink on idle contention, bounds
// clamping, and the MinOps evidence floor.
func TestAutoShardPolicy(t *testing.T) {
	a := NewAutoShard(AutoShardConfig{Min: 2, Max: 16, GrowAt: 0.10, ShrinkAt: 0.01, Patience: 2, Cooldown: 2, MinOps: 100})

	ops, cont := int64(0), int64(0)
	tick := func(dOps, dCont int64, cur int) (int, bool) {
		ops += dOps
		cont += dCont
		return a.Observe(cur, ops, cont, 0, 0)
	}

	if n, ok := tick(1000, 500, 4); ok {
		t.Fatalf("first (baseline) tick resized to %d", n)
	}
	// Two contended ticks → grow; one is not enough (patience).
	if n, ok := tick(1000, 200, 4); ok {
		t.Fatalf("resized to %d after one contended tick", n)
	}
	n, ok := tick(1000, 200, 4)
	if !ok || n != 8 {
		t.Fatalf("grow tick = %d, %v; want 8, true", n, ok)
	}
	// Cooldown: two silent ticks even under heavy contention.
	for i := 0; i < 2; i++ {
		if n, ok := tick(1000, 900, 8); ok {
			t.Fatalf("resized to %d during cooldown", n)
		}
	}
	// Idle ticks (below MinOps) are not evidence.
	for i := 0; i < 5; i++ {
		if n, ok := tick(10, 0, 8); ok {
			t.Fatalf("resized to %d on an idle tick", n)
		}
	}
	// Quiet ticks with real traffic → shrink after patience.
	if n, ok := tick(1000, 0, 8); ok {
		t.Fatalf("shrank to %d after one quiet tick", n)
	}
	n, ok = tick(1000, 0, 8)
	if !ok || n != 4 {
		t.Fatalf("shrink tick = %d, %v; want 4, true", n, ok)
	}
	// Bounds enforcement: a count outside [Min, Max] is corrected
	// immediately, without waiting for contention evidence.
	ab := NewAutoShard(AutoShardConfig{Min: 4, Max: 16})
	if n, ok := ab.Observe(1, 0, 0, 0, 0); !ok || n != 4 {
		t.Fatalf("below-Min enforcement = %d, %v; want 4, true", n, ok)
	}
	if n, ok := ab.Observe(32, 10, 0, 0, 0); !ok || n != 16 {
		t.Fatalf("above-Max enforcement = %d, %v; want 16, true", n, ok)
	}

	// Clamping: growth saturates at Max, shrink at Min.
	a2 := NewAutoShard(AutoShardConfig{Min: 2, Max: 8, GrowAt: 0.10, ShrinkAt: 0.01, Patience: 1, Cooldown: 1, MinOps: 1})
	a2.Observe(8, 0, 0, 0, 0)
	if n, ok := a2.Observe(8, 1000, 500, 0, 0); ok || n != 0 {
		t.Fatalf("grow at Max returned %d, %v; want no-op", n, ok)
	}
	a3 := NewAutoShard(AutoShardConfig{Min: 2, Max: 8, GrowAt: 0.10, ShrinkAt: 0.01, Patience: 1, Cooldown: 1, MinOps: 1})
	a3.Observe(2, 0, 0, 0, 0)
	if n, ok := a3.Observe(2, 1000, 0, 0, 0); ok || n != 0 {
		t.Fatalf("shrink at Min returned %d, %v; want no-op", n, ok)
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

// TestMidMigrationFreshnessWins pins the re-validation rule for queries
// racing a migration: a record mutated AFTER its shard's handoff must be
// reported from its current state — the preserved pre-handoff snapshot in
// the draining generation must neither resurrect a removed record nor
// suppress (via the dedupe map) a fresher position. The mid-migration
// state is constructed by hand so the window is stable, not a race.
func TestMidMigrationFreshnessWins(t *testing.T) {
	db := NewShardedSightingDB(WithShards(2))
	const n = 40
	for i := 0; i < n; i++ {
		db.Put(sighting(fmt.Sprintf("o%d", i), float64(i*10), 50))
	}
	// Open a migration and hand off exactly one old shard, freezing the
	// store in the dual-generation state.
	old := db.gen.Load()
	next := &shardGen{epoch: old.epoch + 1, shards: make([]*sightingShard, 5), prev: old}
	for i := range next.shards {
		next.shards[i] = newShard()
	}
	db.gen.Store(next)
	db.handoffShard(old.shards[0], next)

	// Mutate records whose authority moved to the new generation: an
	// update and a removal, both already committed before the queries
	// below start.
	var movedIDs []core.OID
	for i := 0; i < n; i++ {
		id := core.OID(fmt.Sprintf("o%d", i))
		if spatial.ShardFor(id, len(old.shards)) == 0 {
			movedIDs = append(movedIDs, id)
		}
	}
	if len(movedIDs) < 2 {
		t.Fatalf("need at least 2 objects on the drained shard, have %d", len(movedIDs))
	}
	updated, removed := movedIDs[0], movedIDs[1]
	db.Put(sighting(string(updated), 5000, 5000)) // moved far away
	if !db.Remove(removed) {
		t.Fatalf("Remove(%s) failed", removed)
	}

	// A full-area search must report the updated record at its NEW
	// position only, and the removed record not at all.
	got := map[core.OID]geo.Point{}
	db.SearchArea(geo.R(0, 0, 10000, 10000), func(s core.Sighting) bool {
		if p, dup := got[s.OID]; dup {
			t.Fatalf("search saw %s twice (%v and %v)", s.OID, p, s.Pos)
		}
		got[s.OID] = s.Pos
		return true
	})
	if p, ok := got[updated]; !ok || p != geo.Pt(5000, 5000) {
		t.Errorf("updated record reported at %v, %v; want (5000,5000), true", p, ok)
	}
	if p, ok := got[removed]; ok {
		t.Errorf("removed record resurrected at %v by the preserved snapshot", p)
	}
	if len(got) != n-1 {
		t.Errorf("search saw %d records, want %d", len(got), n-1)
	}
	// ForEach must agree.
	got = map[core.OID]geo.Point{}
	db.ForEach(func(s core.Sighting) bool {
		if p, dup := got[s.OID]; dup {
			t.Fatalf("ForEach saw %s twice (%v and %v)", s.OID, p, s.Pos)
		}
		got[s.OID] = s.Pos
		return true
	})
	if p, ok := got[updated]; !ok || p != geo.Pt(5000, 5000) {
		t.Errorf("ForEach reported updated record at %v, %v; want (5000,5000), true", p, ok)
	}
	if _, ok := got[removed]; ok || len(got) != n-1 {
		t.Errorf("ForEach: removed present=%v, count=%d (want absent, %d)", ok, len(got), n-1)
	}
	// Unmoved-shard records keep answering through the draining shard.
	for _, id := range movedIDs[2:] {
		if _, ok := db.Get(id); !ok {
			t.Errorf("moved record %s unreachable mid-migration", id)
		}
	}
	// Finish the hand-driven migration the way Resize does (a real Resize
	// always runs to completion under resizeMu, so it never encounters
	// this half-migrated state): drain the second shard, rebuild the
	// destinations, retire prev.
	db.handoffShard(old.shards[1], next)
	for _, dst := range next.shards {
		dst.mu.Lock()
		dst.rebuildIndexLocked()
		dst.mu.Unlock()
	}
	db.gen.Store(&shardGen{epoch: next.epoch, shards: next.shards})
	// And a real resize on top of the now-clean state.
	if err := db.Resize(3); err != nil {
		t.Fatal(err)
	}
	oracle := newOracle()
	for i := 0; i < n; i++ {
		id := core.OID(fmt.Sprintf("o%d", i))
		if id == removed {
			continue
		}
		if id == updated {
			oracle.Put(sighting(string(id), 5000, 5000))
			continue
		}
		oracle.Put(sighting(string(id), float64(i*10), 50))
	}
	checkAgainstOracle(t, db, oracle, rand.New(rand.NewSource(5)), 10000)
}
