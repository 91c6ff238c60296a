package store

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// indexPayloadErr is the test-only accessor for the invariant every read
// path of the store relies on: each item of a shard's quadtree carries its
// memtable record (Ref == byID[ID]) together with that record's accuracy
// and position, and the tree holds exactly one item per record. It walks
// every shard.
func (db *ShardedSightingDB) indexPayloadErr() error {
	everywhere := geo.R(math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1))
	for i, sh := range db.shards {
		sh.mu.RLock()
		var err error
		seen := 0
		sh.idx.SearchItems(everywhere, func(it *spatial.Item) bool {
			seen++
			e := sh.byID[it.ID]
			switch {
			case e == nil:
				err = fmt.Errorf("shard %d: item %s has no record", i, it.ID)
			case it.Ref != any(e):
				err = fmt.Errorf("shard %d: item %s carries Ref %v, record is %p", i, it.ID, it.Ref, e)
			case it.Acc != e.acc:
				err = fmt.Errorf("shard %d: item %s carries Acc %v, record has %v", i, it.ID, it.Acc, e.acc)
			case it.Pos != e.s.Pos:
				err = fmt.Errorf("shard %d: item %s at %v, record at %v", i, it.ID, it.Pos, e.s.Pos)
			}
			return err == nil
		})
		if err == nil && (seen != len(sh.byID) || sh.idx.Len() != len(sh.byID)) {
			err = fmt.Errorf("shard %d: tree walks %d items and counts %d, hash index holds %d records",
				i, seen, sh.idx.Len(), len(sh.byID))
		}
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func checkIndexPayloads(t *testing.T, db *ShardedSightingDB, after string) {
	t.Helper()
	if err := db.indexPayloadErr(); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
}

// putRandom puts n sightings of ids "<prefix>0".."<prefix>(ids-1)" at
// random positions, half of them through PutBatchAcc in batches that
// repeat ids (the coalesced path), half through Put.
func putRandom(db *ShardedSightingDB, rng *rand.Rand, prefix string, ids, n int) {
	now := time.Now()
	mk := func() core.Sighting {
		return core.Sighting{
			OID: core.OID(fmt.Sprintf("%s%d", prefix, rng.Intn(ids))), T: now,
			Pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000), SensAcc: 5,
		}
	}
	for done := 0; done < n; {
		if rng.Intn(2) == 0 {
			db.Put(mk())
			done++
			continue
		}
		batch := make([]core.Sighting, 1+rng.Intn(8))
		accs := make([]float64, len(batch))
		for k := range batch {
			batch[k] = mk()
			accs[k] = float64(rng.Intn(50))
		}
		db.PutBatchAcc(batch, accs, nil)
		done += len(batch)
	}
}

// TestIndexPayloadInvariant checks, after every path that edits or
// replaces a shard's quadtree, that each tree item carries its record and
// accuracy and that the tree and the hash index agree on the population.
// The store's read paths take the record straight off the item, without a
// fallback through the hash index.
func TestIndexPayloadInvariant(t *testing.T) {
	t.Run("puts_and_removes", func(t *testing.T) {
		for _, shards := range []int{1, 4} {
			db := NewShardedSightingDB(WithShards(shards))
			rng := rand.New(rand.NewSource(int64(shards)))
			putRandom(db, rng, "o", 300, 2000)
			checkIndexPayloads(t, db, fmt.Sprintf("puts (%d shards)", shards))
			for i := 0; i < 300; i += 3 {
				db.RemoveDelta(core.OID(fmt.Sprintf("o%d", i)))
			}
			checkIndexPayloads(t, db, fmt.Sprintf("removes (%d shards)", shards))
		}
	})

	t.Run("set_acc", func(t *testing.T) {
		db := NewShardedSightingDB(WithShards(2))
		rng := rand.New(rand.NewSource(3))
		putRandom(db, rng, "o", 200, 1000)
		for i := 0; i < 200; i += 2 {
			db.SetAcc(core.OID(fmt.Sprintf("o%d", i)), float64(100+i))
		}
		checkIndexPayloads(t, db, "SetAcc")
	})

	t.Run("wal_recover", func(t *testing.T) {
		dir := t.TempDir()
		w, err := OpenShardedWAL(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		db := NewShardedSightingDB(WithSightingWAL(w))
		putRandom(db, rand.New(rand.NewSource(4)), "o", 300, 2000)
		db.RemoveDelta("o7")
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenShardedWAL(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		db2 := NewShardedSightingDB(WithSightingWAL(w2))
		if err := db2.Recover(); err != nil {
			t.Fatal(err)
		}
		if db2.Len() != db.Len() {
			t.Fatalf("recovered %d records, want %d", db2.Len(), db.Len())
		}
		checkIndexPayloads(t, db2, "Recover")
		putRandom(db2, rand.New(rand.NewSource(5)), "o", 300, 500)
		checkIndexPayloads(t, db2, "puts after Recover")
	})

	t.Run("repl_install_snapshot", func(t *testing.T) {
		primary := NewShardedSightingDB(WithShards(2))
		putRandom(primary, rand.New(rand.NewSource(6)), "p", 200, 1000)
		standby := NewShardedSightingDB(WithShards(2))
		putRandom(standby, rand.New(rand.NewSource(7)), "s", 100, 500)
		for shard := 0; shard < 2; shard++ {
			st, err := primary.ReplSnapshot(shard, uint64(shard+1))
			if err != nil {
				t.Fatal(err)
			}
			if err := standby.ReplInstallSnapshot(shard, st, nil); err != nil {
				t.Fatal(err)
			}
		}
		if standby.Len() != primary.Len() {
			t.Fatalf("standby holds %d records, primary %d", standby.Len(), primary.Len())
		}
		checkIndexPayloads(t, standby, "ReplInstallSnapshot")
		putRandom(standby, rand.New(rand.NewSource(8)), "p", 200, 300)
		checkIndexPayloads(t, standby, "puts after ReplInstallSnapshot")
	})

	t.Run("tiered_flush", func(t *testing.T) {
		db := NewShardedSightingDB(WithShards(2),
			WithTiering(TierConfig{Dir: t.TempDir(), MemtableBytes: 1, MaxRuns: 3}))
		if err := db.Recover(); err != nil {
			t.Fatal(err)
		}
		putRandom(db, rand.New(rand.NewSource(10)), "o", 300, 1000)
		if err := db.MaintainTiers(); err != nil {
			t.Fatal(err)
		}
		if db.TierStats().Flushes == 0 {
			t.Fatal("no flush happened")
		}
		checkIndexPayloads(t, db, "flush")
		putRandom(db, rand.New(rand.NewSource(11)), "o", 300, 200)
		checkIndexPayloads(t, db, "puts after a flush")
	})
}
