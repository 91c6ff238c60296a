package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

func sighting(id string, x, y float64) core.Sighting {
	return core.Sighting{OID: core.OID(id), T: time.Now(), Pos: geo.Pt(x, y), SensAcc: 5}
}

// removed reports whether Deregister removed id's record.
func removed(db *ShardedSightingDB, id core.OID) bool {
	_, _, ok, _ := db.Deregister(id, false)
	return ok
}

// The TestSightingDB* tests drive the default layout, one shard.

func TestSightingDBPutGetRemove(t *testing.T) {
	db := NewShardedSightingDB()
	s := sighting("o1", 10, 20)
	db.Put(s)
	got, ok := db.Get("o1")
	if !ok || got.Pos != geo.Pt(10, 20) {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
	if !removed(db, "o1") {
		t.Error("Deregister returned false")
	}
	if removed(db, "o1") {
		t.Error("double Deregister returned true")
	}
	if _, ok := db.Get("o1"); ok {
		t.Error("Get after Remove succeeded")
	}
}

func TestSightingDBUpdateMovesIndexEntry(t *testing.T) {
	db := NewShardedSightingDB()
	db.Put(sighting("o1", 10, 10))
	db.Put(sighting("o1", 90, 90)) // update, same id
	if db.Len() != 1 {
		t.Fatalf("Len = %d after update", db.Len())
	}
	var found []core.OID
	db.SearchArea(geo.R(0, 0, 20, 20), func(s core.Sighting) bool {
		found = append(found, s.OID)
		return true
	})
	if len(found) != 0 {
		t.Errorf("old position still indexed: %v", found)
	}
	db.SearchArea(geo.R(80, 80, 100, 100), func(s core.Sighting) bool {
		found = append(found, s.OID)
		return true
	})
	if len(found) != 1 || found[0] != "o1" {
		t.Errorf("new position not indexed: %v", found)
	}
}

func TestSightingDBExpiry(t *testing.T) {
	now := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	db := NewShardedSightingDB(WithTTL(30*time.Second), WithClock(clock))
	db.Put(sighting("fresh", 1, 1))
	db.Put(sighting("stale", 2, 2))
	if got := db.Expired(); len(got) != 0 {
		t.Fatalf("expired immediately: %v", got)
	}
	advance(20 * time.Second)
	db.Put(sighting("fresh", 1, 1)) // refresh one record
	advance(20 * time.Second)
	got := db.Expired()
	if len(got) != 1 || got[0] != "stale" {
		t.Errorf("Expired = %v, want [stale]", got)
	}
	// Re-putting the stale one refreshes its deadline too.
	db.Put(sighting("stale", 2, 2))
	if got := db.Expired(); len(got) != 0 {
		t.Errorf("Expired after refresh = %v", got)
	}
}

func TestSightingDBExpiryDisabled(t *testing.T) {
	db := NewShardedSightingDB() // zero TTL
	db.Put(sighting("o", 1, 1))
	if got := db.Expired(); got != nil {
		t.Errorf("Expired with TTL=0 = %v", got)
	}
}

func TestSightingDBNearestFunc(t *testing.T) {
	db := NewShardedSightingDB()
	db.Put(sighting("a", 0, 0))
	db.Put(sighting("b", 10, 0))
	db.Put(sighting("c", 20, 0))
	var order []core.OID
	db.NearestFunc(geo.Pt(11, 0), func(s core.Sighting, _ float64) bool {
		order = append(order, s.OID)
		return true
	})
	want := []core.OID{"b", "c", "a"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("nearest order = %v, want %v", order, want)
	}
}

func TestSightingDBForEachAndString(t *testing.T) {
	db := NewShardedSightingDB()
	for i := 0; i < 5; i++ {
		db.Put(sighting(fmt.Sprintf("o%d", i), float64(i), float64(i)))
	}
	count := 0
	db.ForEach(func(core.Sighting) bool { count++; return true })
	if count != 5 {
		t.Errorf("ForEach visited %d", count)
	}
	count = 0
	db.ForEach(func(core.Sighting) bool { count++; return false })
	if count != 1 {
		t.Errorf("ForEach early stop visited %d", count)
	}
	if got := db.String(); got != "ShardedSightingDB(1 shards, 5 records)" {
		t.Errorf("String = %q", got)
	}
}

func TestSightingDBConcurrentAccess(t *testing.T) {
	db := NewShardedSightingDB(WithTTL(time.Minute))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("w%d-o%d", w, i%50)
				switch i % 4 {
				case 0, 1:
					db.Put(sighting(id, rng.Float64()*100, rng.Float64()*100))
				case 2:
					db.Get(core.OID(id))
				case 3:
					db.SearchArea(geo.R(0, 0, 50, 50), func(core.Sighting) bool { return true })
				}
			}
		}(w)
	}
	wg.Wait()
}
