package store

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// deltaStores builds the store at one shard (the default layout) and at
// four, so every delta test runs against both.
func deltaStores(t *testing.T, opts ...SightingDBOption) map[string]*ShardedSightingDB {
	t.Helper()
	return map[string]*ShardedSightingDB{
		"shards=1": NewShardedSightingDB(append(opts, WithShards(1))...),
		"shards=4": NewShardedSightingDB(append(opts, WithShards(4))...),
	}
}

func TestPutBatchDeltas(t *testing.T) {
	for name, db := range deltaStores(t) {
		t.Run(name, func(t *testing.T) {
			a := core.Sighting{OID: "a", Pos: geo.Pt(10, 10)}
			b := core.Sighting{OID: "b", Pos: geo.Pt(20, 20)}
			ds := db.PutBatch([]core.Sighting{a, b}, []Delta{})
			if len(ds) != 2 {
				t.Fatalf("got %d deltas, want 2: %+v", len(ds), ds)
			}
			for _, d := range ds {
				if d.Op != DeltaPut || d.HasOld {
					t.Fatalf("fresh insert delta %+v: want DeltaPut without old", d)
				}
			}

			// An update reports the superseded position.
			a2 := core.Sighting{OID: "a", Pos: geo.Pt(30, 30)}
			ds = db.PutBatch([]core.Sighting{a2}, []Delta{})
			if len(ds) != 1 {
				t.Fatalf("got %d deltas, want 1", len(ds))
			}
			d := ds[0]
			if d.Op != DeltaPut || d.OID != "a" || !d.HasOld || d.Old != geo.Pt(10, 10) || d.New != geo.Pt(30, 30) {
				t.Fatalf("update delta %+v: want old (10,10) -> new (30,30)", d)
			}
		})
	}
}

// TestPutBatchDeltasCoalesced pins the batch-coalescing contract: a batch
// with several updates to one object emits exactly one delta for it,
// spanning the pre-batch position and the batch-final one, and the final
// store state matches sequential application.
func TestPutBatchDeltasCoalesced(t *testing.T) {
	for name, db := range deltaStores(t) {
		t.Run(name, func(t *testing.T) {
			db.Put(core.Sighting{OID: "a", Pos: geo.Pt(1, 1)})
			batch := []core.Sighting{
				{OID: "a", Pos: geo.Pt(2, 2)},
				{OID: "a", Pos: geo.Pt(3, 3)},
				{OID: "a", Pos: geo.Pt(4, 4)},
			}
			ds := db.PutBatch(batch, []Delta{})
			want := Delta{Op: DeltaPut, OID: "a", Old: geo.Pt(1, 1), HasOld: true, New: geo.Pt(4, 4)}
			if len(ds) != 1 || ds[0] != want {
				t.Fatalf("deltas %+v, want exactly %+v", ds, want)
			}
			if s, ok := db.Get("a"); !ok || s.Pos != geo.Pt(4, 4) {
				t.Fatalf("store state %+v after batch, want pos (4,4)", s)
			}
		})
	}
}

func TestRemoveDelta(t *testing.T) {
	for name, db := range deltaStores(t) {
		t.Run(name, func(t *testing.T) {
			db.Put(core.Sighting{OID: "a", Pos: geo.Pt(5, 6)})
			d, _, ok, _ := db.Deregister("a", false)
			if !ok {
				t.Fatal("Deregister(a) found nothing")
			}
			if d.Op != DeltaRemove || d.OID != "a" || !d.HasOld || d.Old != geo.Pt(5, 6) {
				t.Fatalf("remove delta %+v: want DeltaRemove with old (5,6)", d)
			}
			if _, _, ok, _ := db.Deregister("a", false); ok {
				t.Fatal("second Deregister(a) reported a removal")
			}
			if _, ok := db.Get("a"); ok {
				t.Fatal("record survived Deregister")
			}
		})
	}
}

func TestRemoveExpiredDelta(t *testing.T) {
	base := time.Unix(1000, 0)
	var mu sync.Mutex
	cur := base
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return cur
	}
	for name, db := range deltaStores(t, WithTTL(10*time.Second), WithClock(clock)) {
		t.Run(name, func(t *testing.T) {
			mu.Lock()
			cur = base
			mu.Unlock()
			db.Put(core.Sighting{OID: "a", Pos: geo.Pt(7, 8)})
			if _, _, ok, _ := db.Deregister("a", true); ok {
				t.Fatal("unexpired record removed")
			}
			mu.Lock()
			cur = base.Add(20 * time.Second)
			mu.Unlock()
			d, _, ok, _ := db.Deregister("a", true)
			if !ok {
				t.Fatal("expired record not removed")
			}
			if d.Op != DeltaRemove || d.OID != "a" || d.Old != geo.Pt(7, 8) {
				t.Fatalf("expiry delta %+v", d)
			}
		})
	}
}

// TestPipelineOnCommit drives concurrent updates through the pipeline and
// checks that the commit callback observes, per object, a delta chain from
// first insert to last position with no gaps — commit order, old == previous
// new — and that the total of final positions matches the store.
func TestPipelineOnCommit(t *testing.T) {
	for name, db := range deltaStores(t) {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			lastNew := make(map[core.OID]geo.Point)
			chainBroken := ""
			p := NewUpdatePipeline(db, OnCommit(func(ds []Delta) {
				mu.Lock()
				defer mu.Unlock()
				for _, d := range ds {
					prev, seen := lastNew[d.OID]
					if seen != d.HasOld || (seen && d.Old != prev) {
						chainBroken = string(d.OID)
					}
					lastNew[d.OID] = d.New
				}
			}))
			const workers, perWorker, objects = 8, 200, 31
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						oid := core.OID(fmt.Sprintf("o%d", (w*perWorker+i)%objects))
						p.Put(core.Sighting{OID: oid, Pos: geo.Pt(float64(w), float64(i))})
					}
				}(w)
			}
			wg.Wait()
			mu.Lock()
			defer mu.Unlock()
			if chainBroken != "" {
				t.Fatalf("delta chain broken for object %q", chainBroken)
			}
			if len(lastNew) == 0 {
				t.Fatal("no deltas observed")
			}
			for oid, pos := range lastNew {
				s, ok := db.Get(oid)
				if !ok || s.Pos != pos {
					t.Fatalf("object %s: last delta new %v, store has %v (ok=%v)", oid, pos, s.Pos, ok)
				}
			}
		})
	}
}
