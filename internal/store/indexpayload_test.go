package store

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// indexPayloadErr is the test-only accessor for the invariant every read
// path of the store relies on: each item of a shard's quadtree carries its
// object (Ref == objs[ID]), whose memtable sighting it is, together with
// the object's position and accuracy, the accuracy is the object's
// registration's (AccUnknown without one), and the tree holds exactly one
// item per memtable sighting. It also checks the shard's object map: no
// object is left empty, the registration count matches, and on a tiered
// shard the memtable list names each memtable id once. It walks every
// shard.
func (db *ShardedSightingDB) indexPayloadErr() error {
	everywhere := geo.R(math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1))
	for i, sh := range db.shards {
		sh.mu.RLock()
		var err error
		seen := 0
		sh.idx.SearchBuckets(everywhere, func(items []spatial.Item, _ geo.Rect, _ bool) bool {
			for k := range items {
				it := &items[k]
				seen++
				o := sh.objs[it.ID]
				switch {
				case o == nil || o.mem != memSighting:
					err = fmt.Errorf("shard %d: item %s has no record", i, it.ID)
				case it.Ref != any(o):
					err = fmt.Errorf("shard %d: item %s carries Ref %v, record is %p", i, it.ID, it.Ref, o)
				case it.Pos != o.pos:
					err = fmt.Errorf("shard %d: item %s at %v, record at %v", i, it.ID, it.Pos, o.pos)
				case it.Acc != o.acc || o.reg == nil && o.acc != AccUnknown:
					err = fmt.Errorf("shard %d: item %s carries Acc %v, record %v (registered: %v)", i, it.ID, it.Acc, o.acc, o.reg != nil)
				}
				if err != nil {
					return false
				}
			}
			return true
		})
		count := map[memState]int{}
		reg := 0
		for id, o := range sh.objs {
			if o.mem == memNone && o.reg == nil {
				err = fmt.Errorf("shard %d: object %s holds nothing", i, id)
			}
			count[o.mem]++
			if o.reg != nil {
				reg++
			}
		}
		if hot := count[memSighting]; err == nil && (seen != hot || sh.idx.Len() != hot) {
			err = fmt.Errorf("shard %d: tree walks %d items and counts %d, hash index holds %d records",
				i, seen, sh.idx.Len(), hot)
		}
		if err == nil && reg != sh.nreg {
			err = fmt.Errorf("shard %d: %d registered objects, counted %d", i, reg, sh.nreg)
		}
		if listed := map[core.OID]bool{}; err == nil && sh.tier != nil {
			for _, id := range sh.mem {
				if o := sh.objs[id]; listed[id] || o == nil || o.mem == memNone {
					err = fmt.Errorf("shard %d: memtable list holds %s twice or with nothing in the memtable", i, id)
				}
				listed[id] = true
			}
			if n := count[memSighting] + count[memTomb]; err == nil && len(listed) != n {
				err = fmt.Errorf("shard %d: memtable list holds %d ids, the memtable %d", i, len(listed), n)
			}
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
// random positions, half of them through PutBatch in batches that repeat
// ids (the coalesced path), half through Put.
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
		for k := range batch {
			batch[k] = mk()
		}
		db.PutBatch(batch, nil)
		done += len(batch)
	}
}

// registerRandom runs n random registration operations over the same ids
// as putRandom: registrations with a sighting, registrations alone,
// accuracy changes and deregistrations.
func registerRandom(t *testing.T, db *ShardedSightingDB, rng *rand.Rand, prefix string, ids, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		id := core.OID(fmt.Sprintf("%s%d", prefix, rng.Intn(ids)))
		reg := Registration{OfferedAcc: float64(rng.Intn(50)), PathT: time.Now()}
		var err error
		switch rng.Intn(4) {
		case 0:
			_, err = db.Register(core.Sighting{OID: id, T: reg.PathT, Pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000)}, reg)
		case 1:
			err = db.PutRegistration(id, reg)
		case 2:
			_, err = db.UpdateRegistration(id, func(r *Registration) bool {
				r.OfferedAcc = reg.OfferedAcc
				return true
			})
		default:
			_, _, _, err = db.Deregister(id, false)
		}
		if err != nil {
			t.Fatal(err)
		}
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
			registerRandom(t, db, rng, "o", 300, 500)
			checkIndexPayloads(t, db, fmt.Sprintf("puts (%d shards)", shards))
			for i := 0; i < 300; i += 3 {
				db.Deregister(core.OID(fmt.Sprintf("o%d", i)), false)
			}
			checkIndexPayloads(t, db, fmt.Sprintf("removes (%d shards)", shards))
		}
	})

	t.Run("set_acc", func(t *testing.T) {
		db := NewShardedSightingDB(WithShards(2))
		rng := rand.New(rand.NewSource(3))
		putRandom(db, rng, "o", 200, 1000)
		for i := 0; i < 200; i += 2 {
			if err := db.PutRegistration(core.OID(fmt.Sprintf("o%d", i)), Registration{OfferedAcc: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i += 3 {
			if _, err := db.UpdateRegistration(core.OID(fmt.Sprintf("o%d", i)), func(r *Registration) bool {
				r.OfferedAcc = float64(100 + i)
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		checkIndexPayloads(t, db, "accuracy changes")
	})

	t.Run("wal_recover", func(t *testing.T) {
		dir := t.TempDir()
		w, err := OpenShardedWAL(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		regs := filepath.Join(dir, "registrations.wal")
		rlog, err := OpenFileWAL(regs)
		if err != nil {
			t.Fatal(err)
		}
		db := NewShardedSightingDB(WithSightingWAL(w), WithRegistrationLog(rlog))
		putRandom(db, rand.New(rand.NewSource(4)), "o", 300, 2000)
		registerRandom(t, db, rand.New(rand.NewSource(4)), "o", 300, 500)
		db.Deregister("o7", false)
		if err := rlog.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenShardedWAL(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		rlog2, err := OpenFileWAL(regs)
		if err != nil {
			t.Fatal(err)
		}
		defer rlog2.Close()
		db2 := NewShardedSightingDB(WithSightingWAL(w2), WithRegistrationLog(rlog2))
		if err := db2.Recover(); err != nil {
			t.Fatal(err)
		}
		if db2.Len() != db.Len() || db2.RegistrationCount() != db.RegistrationCount() {
			t.Fatalf("recovered %d records and %d registrations, want %d and %d",
				db2.Len(), db2.RegistrationCount(), db.Len(), db.RegistrationCount())
		}
		checkIndexPayloads(t, db2, "Recover")
		putRandom(db2, rand.New(rand.NewSource(5)), "o", 300, 500)
		checkIndexPayloads(t, db2, "puts after Recover")
	})

	t.Run("tiered_flush", func(t *testing.T) {
		db := NewShardedSightingDB(WithSightingWAL(tempShardedWAL(t, 2)),
			WithTiering(TierConfig{MemtableBytes: 1, MaxRuns: 3}))
		if err := db.Recover(); err != nil {
			t.Fatal(err)
		}
		putRandom(db, rand.New(rand.NewSource(10)), "o", 300, 1000)
		registerRandom(t, db, rand.New(rand.NewSource(10)), "o", 300, 300)
		if err := db.MaintainTiers(); err != nil {
			t.Fatal(err)
		}
		if db.TierStats().Flushes == 0 {
			t.Fatal("no flush happened")
		}
		checkIndexPayloads(t, db, "flush")
		putRandom(db, rand.New(rand.NewSource(11)), "o", 300, 200)
		registerRandom(t, db, rand.New(rand.NewSource(11)), "o", 300, 100)
		checkIndexPayloads(t, db, "puts after a flush")
	})
}
