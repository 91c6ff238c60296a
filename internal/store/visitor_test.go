package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"locsvc/internal/core"
)

func TestVisitorDBInMemory(t *testing.T) {
	db, err := NewVisitorDB(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := VisitorRecord{OID: "o1", ForwardRef: "child-2"}
	if err := db.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := db.Get("o1")
	if !ok || got.ForwardRef != "child-2" {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
	removed, err := db.Remove("o1")
	if err != nil || !removed {
		t.Fatalf("Remove = %v, %v", removed, err)
	}
	removed, err = db.Remove("o1")
	if err != nil || removed {
		t.Errorf("double Remove = %v, %v", removed, err)
	}
}

func TestVisitorDBPersistenceAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "visitors.wal")

	wal, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewVisitorDB(wal)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rec := VisitorRecord{
			OID:        core.OID(fmt.Sprintf("o%d", i)),
			OfferedAcc: float64(i * 10),
			RegInfo:    core.RegInfo{Registrant: "client", DesAcc: 5, MinAcc: 100},
		}
		if err := db.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite one, remove another: replay must apply ops in order.
	if err := db.Put(VisitorRecord{OID: "o3", ForwardRef: "elsewhere"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Remove("o7"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the WAL and rebuild the database.
	wal2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := NewVisitorDB(wal2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 9 {
		t.Fatalf("restored Len = %d, want 9", db2.Len())
	}
	if _, ok := db2.Get("o7"); ok {
		t.Error("removed record survived restart")
	}
	got, ok := db2.Get("o3")
	if !ok || got.ForwardRef != "elsewhere" {
		t.Errorf("overwritten record = %+v, %v", got, ok)
	}
	got, ok = db2.Get("o5")
	if !ok || got.OfferedAcc != 50 || got.RegInfo.MinAcc != 100 {
		t.Errorf("record o5 = %+v, %v", got, ok)
	}
}

func TestFileWALTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	wal, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(WALRecord{Op: WALPut, Visitor: &VisitorRecord{OID: "good"}}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: garbage partial record at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"put","visitor":{"oid":"tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	wal2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewVisitorDB(wal2)
	if err != nil {
		t.Fatalf("replay with torn tail failed: %v", err)
	}
	defer db.Close()
	if db.Len() != 1 {
		t.Errorf("Len = %d, want 1 (only the intact record)", db.Len())
	}
}

func TestVisitorDBForEach(t *testing.T) {
	db, err := NewVisitorDB(NullWAL{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := db.Put(VisitorRecord{OID: core.OID(fmt.Sprintf("o%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	db.ForEach(func(VisitorRecord) bool { count++; return true })
	if count != 4 {
		t.Errorf("ForEach visited %d", count)
	}
	count = 0
	db.ForEach(func(VisitorRecord) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestNullWAL(t *testing.T) {
	var w NullWAL
	if err := w.Append(WALRecord{}); err != nil {
		t.Error(err)
	}
	if err := w.Replay(func(WALRecord) error { t.Error("replayed something"); return nil }); err != nil {
		t.Error(err)
	}
	if err := w.Close(); err != nil {
		t.Error(err)
	}
}

func TestPutIfNewer(t *testing.T) {
	db, err := NewVisitorDB(nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	ok, err := db.PutIfNewer(VisitorRecord{OID: "o", ForwardRef: "a", PathT: t0})
	if err != nil || !ok {
		t.Fatalf("first put = %v, %v", ok, err)
	}
	// Older write refused.
	ok, err = db.PutIfNewer(VisitorRecord{OID: "o", ForwardRef: "stale", PathT: t0.Add(-time.Second)})
	if err != nil || ok {
		t.Fatalf("stale put = %v, %v", ok, err)
	}
	rec, _ := db.Get("o")
	if rec.ForwardRef != "a" {
		t.Errorf("record overwritten by stale put: %+v", rec)
	}
	// Equal timestamp applies (last writer wins on ties).
	ok, err = db.PutIfNewer(VisitorRecord{OID: "o", ForwardRef: "b", PathT: t0})
	if err != nil || !ok {
		t.Fatalf("equal-time put = %v, %v", ok, err)
	}
	// Newer write applies.
	ok, err = db.PutIfNewer(VisitorRecord{OID: "o", ForwardRef: "c", PathT: t0.Add(time.Second)})
	if err != nil || !ok {
		t.Fatalf("newer put = %v, %v", ok, err)
	}
	rec, _ = db.Get("o")
	if rec.ForwardRef != "c" {
		t.Errorf("record = %+v", rec)
	}
}

func TestRemoveIf(t *testing.T) {
	db, err := NewVisitorDB(nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	if err := db.Put(VisitorRecord{OID: "o", ForwardRef: "a", PathT: t0}); err != nil {
		t.Fatal(err)
	}
	// Predicate rejects: record stays.
	ok, err := db.RemoveIf("o", func(r VisitorRecord) bool { return r.ForwardRef == "b" })
	if err != nil || ok {
		t.Fatalf("mismatched RemoveIf = %v, %v", ok, err)
	}
	if _, exists := db.Get("o"); !exists {
		t.Fatal("record removed despite predicate rejection")
	}
	// Missing record: no-op.
	ok, err = db.RemoveIf("ghost", func(VisitorRecord) bool { return true })
	if err != nil || ok {
		t.Fatalf("missing RemoveIf = %v, %v", ok, err)
	}
	// Predicate accepts: removed.
	ok, err = db.RemoveIf("o", func(r VisitorRecord) bool { return r.ForwardRef == "a" })
	if err != nil || !ok {
		t.Fatalf("matching RemoveIf = %v, %v", ok, err)
	}
	if _, exists := db.Get("o"); exists {
		t.Fatal("record survived RemoveIf")
	}
}

func TestPutIfNewerConcurrent(t *testing.T) {
	// Concurrent writers with distinct timestamps: the newest must win
	// regardless of scheduling.
	db, err := NewVisitorDB(nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := VisitorRecord{
				OID:        "o",
				ForwardRef: fmt.Sprintf("c%d", i),
				PathT:      t0.Add(time.Duration(i) * time.Millisecond),
			}
			if _, err := db.PutIfNewer(rec); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	rec, ok := db.Get("o")
	if !ok || rec.ForwardRef != "c31" {
		t.Errorf("final record = %+v, want c31", rec)
	}
}
