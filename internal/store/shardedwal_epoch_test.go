package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// The tests in this file cover the epoch layouts OpenShardedWAL still reads:
// directories that earlier builds moved past epoch 0 by re-partitioning a
// running store (see the ShardedWAL type comment). Nothing in this package
// writes such a directory any more, so each test builds one by hand.

// fixtureEpoch and fixtureShards describe the fully switched directory
// writeEpochFixture builds.
const (
	fixtureEpoch  = 2
	fixtureShards = 3
)

// writeEpochFixture builds, in dir, the directory an older build leaves
// after it re-partitioned a store and finished the switch: every segment
// is at epoch 2 of 3 shards and holds the epoch header, a snapshot of the
// shard's live set, and then a put (moving one snapshot object) and a
// remove (of another). It returns the state the directory must recover to.
func writeEpochFixture(t *testing.T, dir string) sightingOracle {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	perShard := make([][]core.Sighting, fixtureShards)
	for i := 0; i < 90; i++ {
		s := sighting(fmt.Sprintf("o%d", i), rng.Float64()*500, rng.Float64()*500)
		j := spatial.ShardFor(s.OID, fixtureShards)
		perShard[j] = append(perShard[j], s)
	}
	oracle := sightingOracle{}
	for j, live := range perShard {
		if len(live) < 2 {
			t.Fatalf("fixture shard %d holds %d objects, need 2", j, len(live))
		}
		if err := writeEpochSegment(dir, j, fixtureEpoch, fixtureShards, live); err != nil {
			t.Fatal(err)
		}
		for _, s := range live {
			oracle[s.OID] = s
		}
		seg, err := OpenFileWAL(segmentPath(dir, j, fixtureEpoch))
		if err != nil {
			t.Fatal(err)
		}
		moved := live[0]
		moved.Pos = geo.Pt(moved.Pos.X+1, moved.Pos.Y+1)
		if err := seg.Append(WALRecord{Op: WALSightingBatch, Sightings: []core.Sighting{moved}}); err != nil {
			t.Fatal(err)
		}
		oracle[moved.OID] = moved
		if err := seg.Append(WALRecord{Op: WALSightingRemove, OID: live[1].OID}); err != nil {
			t.Fatal(err)
		}
		delete(oracle, live[1].OID)
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return oracle
}

// openEpochFixture opens dir with a shard count the fixture contradicts,
// checks that the log's own layout wins, and recovers a store from it.
func openEpochFixture(t *testing.T, dir string, oracle sightingOracle, opts ...FileWALOption) (*ShardedWAL, *ShardedSightingDB) {
	t.Helper()
	w, err := OpenShardedWAL(dir, 4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumShards() != fixtureShards || w.Epoch() != fixtureEpoch {
		w.Close()
		t.Fatalf("reopened WAL at %d shards epoch %d, want %d / %d", w.NumShards(), w.Epoch(), fixtureShards, fixtureEpoch)
	}
	db := NewShardedSightingDB(WithSightingWAL(w))
	if db.NumShards() != fixtureShards {
		t.Fatalf("store at %d shards, want the log's %d", db.NumShards(), fixtureShards)
	}
	if err := db.Recover(); err != nil {
		w.Close()
		t.Fatal(err)
	}
	expectRecovered(t, db, oracle)
	return w, db
}

// testEpochDirRecovery opens the fixture, keeps writing through the store
// and checks that a second open recovers both the fixture and the new
// writes at the fixture's layout.
func testEpochDirRecovery(t *testing.T, opts ...FileWALOption) {
	dir := t.TempDir()
	oracle := writeEpochFixture(t, dir)
	w, db := openEpochFixture(t, dir, oracle, opts...)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 40; i++ {
		s := sighting(fmt.Sprintf("post%d", i), rng.Float64()*500, rng.Float64()*500)
		db.Put(s)
		oracle[s.OID] = s
	}
	for i := 0; i < 20; i++ {
		id := core.OID(fmt.Sprintf("o%d", rng.Intn(90)))
		if removed(db, id) {
			delete(oracle, id)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // crash point: no compaction, no store shutdown
		t.Fatal(err)
	}
	w2, _ := openEpochFixture(t, dir, oracle, opts...)
	defer w2.Close()
}

// TestResizeWALRecovery: a fully switched epoch-2 directory reopens at its
// own shard count and epoch whatever count the caller passes, recovers to
// exactly its live set, and keeps logging into its epoch-2 segments.
func TestResizeWALRecovery(t *testing.T) {
	testEpochDirRecovery(t)
}

// TestResizeWALSyncMode is TestResizeWALRecovery with WithSync, where every
// append waits for the writer goroutine's fsynced commit of its record.
func TestResizeWALSyncMode(t *testing.T) {
	testEpochDirRecovery(t, WithSync())
}

// TestWALEpochCompaction: compacting a directory past epoch 0 keeps every
// segment's epoch header. Without it the next open would take each segment
// for the leftover of a crashed switch and delete it.
func TestWALEpochCompaction(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []FileWALOption
	}{{"async", nil}, {"sync", []FileWALOption{WithSync()}}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			oracle := writeEpochFixture(t, dir)
			w, db := openEpochFixture(t, dir, oracle, tc.opts...)
			compactAllShards(t, db)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < fixtureShards; j++ {
				hdr, invalid, err := readEpochHeader(segmentPath(dir, j, fixtureEpoch))
				if err != nil || invalid || hdr.Epoch != fixtureEpoch || hdr.ShardCount != fixtureShards {
					t.Fatalf("segment %d after compaction: header %+v, invalid %v, err %v", j, hdr, invalid, err)
				}
			}
			w2, _ := openEpochFixture(t, dir, oracle, tc.opts...)
			defer w2.Close()
		})
	}
}

// TestWALEpochFold reconstructs the on-disk state a crash in the middle of
// an epoch switch leaves behind — some shards already on their epoch-1
// snapshot segments (with post-switch appends), the rest still spread over
// the epoch-0 layout — and verifies OpenShardedWAL folds across the
// boundary: epoch-1 segments are authoritative for their shards, the old
// segments fill in the rest, and the directory comes back single-epoch.
func TestWALEpochFold(t *testing.T) {
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
		if err := w.AppendBatch(spatial.ShardFor(s.OID, oldCount), []core.Sighting{s}); err != nil {
			t.Fatal(err)
		}
		oracle[s.OID] = s
	}
	// A removal that must not resurrect.
	gone := all[17].OID
	if err := w.AppendRemove(spatial.ShardFor(gone, oldCount), gone); err != nil {
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
		if err := writeEpochSegment(dir, j, 1, newCount, perShard[j]); err != nil {
			t.Fatal(err)
		}
		seg, err := OpenFileWAL(segmentPath(dir, j, 1))
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
