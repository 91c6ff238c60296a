package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
	if child, ok := db.Forward("o1"); !ok || child != "child-2" {
		t.Fatalf("Forward = %q, %v", child, ok)
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
	if _, ok := db.Forward("o1"); ok {
		t.Error("Forward found a removed record")
	}
}

// writeRestartLog writes, through a VisitorDB, ten registration-style
// records (o0…o9, offered accuracy 10·i, RegInfo from "client"), then
// overwrites o3 with a forwarding record and removes o7.
func writeRestartLog(t *testing.T, path string) {
	t.Helper()
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
}

func TestVisitorDBPersistenceAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "visitors.wal")
	writeRestartLog(t, path)

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
	// The table keeps forwarding records only: a registration's fields
	// are not part of it (TestRegistrationReplayOfRestartLog).
	got, ok = db2.Get("o5")
	if !ok || got != (VisitorRecord{OID: "o5"}) {
		t.Errorf("record o5 = %+v, %v", got, ok)
	}
}

// TestRegistrationReplayOfRestartLog: a leaf's sighting store replaying the
// log of TestVisitorDBPersistenceAcrossRestart restores each registration's
// offered accuracy and RegInfo, applying puts and removes in order.
func TestRegistrationReplayOfRestartLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "visitors.wal")
	writeRestartLog(t, path)
	log, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	db := NewShardedSightingDB(WithShards(4), WithRegistrationLog(log))
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if n := db.RegistrationCount(); n != 9 {
		t.Fatalf("%d registrations, want 9", n)
	}
	if _, ok := db.Registration("o7"); ok {
		t.Error("removed registration survived the replay")
	}
	if reg, ok := db.Registration("o3"); !ok || reg != (Registration{}) {
		t.Errorf("overwritten registration o3 = %+v, %v", reg, ok)
	}
	reg, ok := db.Registration("o5")
	if !ok || reg.OfferedAcc != 50 || reg.RegInfo.MinAcc != 100 || reg.RegInfo.Registrant != "client" {
		t.Errorf("registration o5 = %+v, %v", reg, ok)
	}
}

// framedPayload frames payload as appendWALRecord does, whatever it holds.
func framedPayload(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// appendRawRecord appends already framed record bytes to the closed log at
// path, for records the encoder refuses to write.
func appendRawRecord(t *testing.T, path string, record []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(record); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRegistrationReplayErrors: the registration log replay refuses what
// the visitor table's replay refuses: correctly framed records that are
// not visitor records.
func TestRegistrationReplayErrors(t *testing.T) {
	sremove, err := appendWALRecord(nil, WALRecord{Op: WALSightingRemove, OID: "o"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		record []byte
		want   string
	}{
		// The encoder writes no put without its payload, so the record
		// goes into the log as raw bytes.
		{"no payload", framedPayload([]byte{walOpPut}), "malformed payload"},
		{"unknown op", sremove, `unknown WAL op "sremove" in visitor WAL`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "visitors.wal")
			wal, err := OpenFileWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := wal.Append(WALRecord{Op: WALPut, Visitor: &VisitorRecord{OID: "ok"}}); err != nil {
				t.Fatal(err)
			}
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			appendRawRecord(t, path, tc.record)
			vlog, err := OpenFileWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			defer vlog.Close()
			if _, err := NewVisitorDB(vlog); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("NewVisitorDB: %v, want %q", err, tc.want)
			}
			rlog, err := OpenFileWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			defer rlog.Close()
			err = NewShardedSightingDB(WithRegistrationLog(rlog)).Recover()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Recover: %v, want %q", err, tc.want)
			}
		})
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
	// Simulate a torn write: the first half of a record at the tail.
	torn, err := appendWALRecord(nil, WALRecord{Op: WALPut, Visitor: &VisitorRecord{OID: "torn"}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
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

// TestVisitorDBPathTRoundTrip: PathT comes back as the instant it went in,
// to the nanosecond, in UTC and without a monotonic reading; a zero PathT
// comes back zero; both survive a restart replay.
func TestVisitorDBPathTRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "visitors.wal")
	wal, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewVisitorDB(wal)
	if err != nil {
		t.Fatal(err)
	}
	cest := time.FixedZone("CEST", 2*3600)
	want := map[core.OID]time.Time{
		"nanos": time.Date(2026, 10, 16, 9, 0, 1, 123456789, time.UTC),
		"zone":  time.Date(2026, 10, 16, 11, 0, 2, 1, cest),
		"epoch": time.Unix(0, 0),
		"zero":  {},
		"now":   time.Now(),
	}
	for id, pt := range want {
		if err := db.Put(VisitorRecord{OID: id, ForwardRef: "c", PathT: pt}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(db *VisitorDB, when string) {
		t.Helper()
		if db.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", when, db.Len(), len(want))
		}
		for id, pt := range want {
			got, ok := db.Get(id)
			switch {
			case !ok:
				t.Errorf("%s: %s missing", when, id)
			case pt.IsZero() && got.PathT != (time.Time{}):
				t.Errorf("%s: %s PathT = %v, want the zero Time", when, id, got.PathT)
			case !pt.IsZero() && got.PathT != pt.Round(0).UTC():
				t.Errorf("%s: %s PathT = %v, want %v", when, id, got.PathT, pt.Round(0).UTC())
			}
		}
	}
	check(db, "before restart")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wal2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := NewVisitorDB(wal2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, "after restart")
}

// TestVisitorDBBytesPerRecord bounds the table's memory: a forwarding record
// is a child slot and an int64 PathT, so 50 k of them must take well under
// what a map of full VisitorRecords took (≈ 170 B per record at this size).
func TestVisitorDBBytesPerRecord(t *testing.T) {
	const n, ceiling = 50_000, 96
	ids := make([]core.OID, n)
	for i := range ids {
		ids[i] = core.OID(fmt.Sprintf("o%06d", i))
	}
	t0 := time.Date(2026, 10, 16, 9, 0, 0, 0, time.UTC)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := NewVisitorDB(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := db.Put(VisitorRecord{OID: id, ForwardRef: fmt.Sprintf("r.%d", i%4), PathT: t0.Add(time.Duration(i))}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRecord := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%.1f B per forwarding record", perRecord)
	if perRecord > ceiling {
		t.Errorf("%.1f B per forwarding record, ceiling %d", perRecord, ceiling)
	}
	runtime.KeepAlive(db)
	runtime.KeepAlive(ids)
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
	// One nanosecond apart: older refused, equal and newer applied.
	t1 := t0.Add(time.Second)
	for _, tc := range []struct {
		ref   string
		pathT time.Time
		apply bool
	}{
		{"d", t1.Add(-time.Nanosecond), false},
		{"e", t1, true},
		{"f", t1.Add(time.Nanosecond), true},
		{"g", t1, false},
		{"zero", time.Time{}, false},
	} {
		ok, err := db.PutIfNewer(VisitorRecord{OID: "o", ForwardRef: tc.ref, PathT: tc.pathT})
		if err != nil || ok != tc.apply {
			t.Fatalf("put %s at %v = %v, %v; want %v", tc.ref, tc.pathT, ok, err, tc.apply)
		}
	}
	if rec, _ := db.Get("o"); rec.ForwardRef != "f" || !rec.PathT.Equal(t1.Add(time.Nanosecond)) {
		t.Errorf("record = %+v, want f at %v", rec, t1.Add(time.Nanosecond))
	}
	// A record without a PathT yields to any timed one, and to another
	// without.
	if _, err := db.PutIfNewer(VisitorRecord{OID: "z", ForwardRef: "a"}); err != nil {
		t.Fatal(err)
	}
	if ok, err := db.PutIfNewer(VisitorRecord{OID: "z", ForwardRef: "b"}); err != nil || !ok {
		t.Fatalf("untimed put over untimed = %v, %v", ok, err)
	}
	if ok, err := db.PutIfNewer(VisitorRecord{OID: "z", ForwardRef: "c", PathT: time.Unix(0, 0)}); err != nil || !ok {
		t.Fatalf("timed put over untimed = %v, %v", ok, err)
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

// TestVisitorLogCompactedAtOpen: a visitor log whose replay applies far
// more records than its live set is rewritten to that live set when it is
// opened — an inner server's forwarding table and a leaf's registrations
// alike — and the table it reopens to answers as before, at that open and
// at the next one, which replays the compacted log.
func TestVisitorLogCompactedAtOpen(t *testing.T) {
	const ids, changes = 10, 5000
	base := time.Date(2026, 10, 17, 9, 0, 0, 0, time.UTC)
	expectRecords := func(t *testing.T, path string, want int) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(recordOffsets(t, data)); n != want {
			t.Fatalf("log holds %d records after the open, want the %d live ones", n, want)
		}
	}

	t.Run("forwarding table", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "visitors.wal")
		open := func() *VisitorDB {
			t.Helper()
			wal, err := OpenFileWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			db, err := NewVisitorDB(wal)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
		db := open()
		want := make(map[core.OID]VisitorRecord)
		for i := 0; i < changes; i++ {
			rec := VisitorRecord{OID: core.OID(fmt.Sprintf("o%d", i%ids)), ForwardRef: fmt.Sprintf("c%d", i%3), PathT: base.Add(time.Duration(i))}
			if err := db.Put(rec); err != nil {
				t.Fatal(err)
			}
			want[rec.OID] = rec
		}
		if _, err := db.Remove("o3"); err != nil {
			t.Fatal(err)
		}
		delete(want, "o3")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			db := open()
			expectRecords(t, path, len(want))
			if db.Len() != len(want) {
				t.Fatalf("round %d: Len = %d, want %d", round, db.Len(), len(want))
			}
			for id, w := range want {
				if got, ok := db.Get(id); !ok || got.ForwardRef != w.ForwardRef || !got.PathT.Equal(w.PathT) {
					t.Fatalf("round %d: record %s = %+v, %v; want %+v", round, id, got, ok, w)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("registrations", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "registrations.wal")
		open := func() (*ShardedSightingDB, *FileWAL) {
			t.Helper()
			log, err := OpenFileWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			db := NewShardedSightingDB(WithShards(4), WithRegistrationLog(log))
			if err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			return db, log
		}
		db, log := open()
		want := make(map[core.OID]Registration)
		for i := 0; i < changes; i++ {
			id := core.OID(fmt.Sprintf("o%d", i%ids))
			reg := Registration{
				RegInfo:    core.RegInfo{Registrant: "client", DesAcc: 10, MinAcc: 100, MaxSpeed: 3},
				OfferedAcc: float64(i%7 + 1),
				PathT:      base.Add(time.Duration(i)),
			}
			if _, err := db.Register(core.Sighting{OID: id, T: reg.PathT}, reg); err != nil {
				t.Fatal(err)
			}
			want[id] = reg
		}
		if _, _, ok, err := db.Deregister("o3", false); !ok || err != nil {
			t.Fatalf("Deregister: %v, %v", ok, err)
		}
		delete(want, "o3")
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			db, log := open()
			expectRecords(t, path, len(want))
			got := db.Registrations()
			if len(got) != len(want) {
				t.Fatalf("round %d: %d registrations, want %d", round, len(got), len(want))
			}
			for id, w := range want {
				if g, ok := got[id]; !ok || g.RegInfo != w.RegInfo || g.OfferedAcc != w.OfferedAcc || !g.PathT.Equal(w.PathT) {
					t.Fatalf("round %d: registration %s = %+v, %v; want %+v", round, id, g, ok, w)
				}
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
