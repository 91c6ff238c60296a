package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// writeVisitorLog writes n visitor put records and returns the log path
// plus the byte offset of every record.
func writeVisitorLog(t *testing.T, n int) (string, []int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := WALRecord{Op: WALPut, Visitor: &VisitorRecord{
			OID: core.OID(fmt.Sprintf("o%d", i)), ForwardRef: fmt.Sprintf("c%d", i),
		}}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offsets := recordOffsets(t, data)
	if len(offsets) != n {
		t.Fatalf("log holds %d records, want %d", len(offsets), n)
	}
	return path, offsets
}

// recordOffsets walks the frames of a log file's contents and returns the
// byte offset of every whole record after the header.
func recordOffsets(t *testing.T, data []byte) []int64 {
	t.Helper()
	if !bytes.HasPrefix(data, []byte(walHeader)) {
		t.Fatalf("log starts with %q, not the header", data[:min(len(data), len(walHeader))])
	}
	var offsets []int64
	for off := len(walHeader); off+walFrameSize <= len(data); {
		end := off + walFrameSize + int(binary.LittleEndian.Uint32(data[off:]))
		if end > len(data) {
			break
		}
		offsets = append(offsets, int64(off))
		off = end
	}
	return offsets
}

// decodeLog decodes every whole record of a log file's contents without
// going through a FileWAL.
func decodeLog(t *testing.T, data []byte) []WALRecord {
	t.Helper()
	var recs []WALRecord
	for _, off := range recordOffsets(t, data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		rec, err := decodeWALRecord(data[off+walFrameSize : off+walFrameSize+int64(n)])
		if err != nil {
			t.Fatalf("record at offset %d: %v", off, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// logFile is a log holding recs, as OpenFileWAL and Append write it.
func logFile(t *testing.T, recs ...WALRecord) []byte {
	t.Helper()
	data := []byte(walHeader)
	for _, rec := range recs {
		var err error
		if data, err = appendWALRecord(data, rec); err != nil {
			t.Fatal(err)
		}
	}
	return data
}

func replayAll(t *testing.T, path string) ([]WALRecord, error) {
	t.Helper()
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var got []WALRecord
	rerr := w.Replay(func(rec WALRecord) error { got = append(got, rec); return nil })
	return got, rerr
}

// corruptLog rewrites the log at path with one byte flipped and returns
// the file's size.
func corruptLog(t *testing.T, path string, at int64) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[at] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return int64(len(data))
}

// expectCorruptAt replays the log at path and checks that it reports
// ErrCorruptWAL at offset after delivering the want records before it, and
// that the file keeps its size.
func expectCorruptAt(t *testing.T, path string, offset int64, want int, size int64) {
	t.Helper()
	got, rerr := replayAll(t, path)
	if !errors.Is(rerr, ErrCorruptWAL) {
		t.Fatalf("Replay error = %v, want ErrCorruptWAL", rerr)
	}
	if !strings.Contains(rerr.Error(), fmt.Sprintf("offset %d ", offset)) {
		t.Errorf("error %q does not identify offset %d", rerr, offset)
	}
	if len(got) != want {
		t.Errorf("intact prefix delivered %d records, want %d", len(got), want)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != size {
		t.Errorf("log is %v bytes after the replay (%v), want it left at %d", st.Size(), err, size)
	}
}

// A record corrupted in the middle of the log must surface an error naming
// its offset — not be treated as a torn tail that silently discards every
// later record.
func TestReplayMidFileCorruption(t *testing.T) {
	path, offsets := writeVisitorLog(t, 5)
	size := corruptLog(t, path, offsets[2]+walFrameSize+1)
	expectCorruptAt(t, path, offsets[2], 2, size)
}

// A corrupted FINAL record that is complete — its payload or its payload
// CRC damaged — is corruption, not a torn write.
func TestReplayCorruptTerminatedFinalLine(t *testing.T) {
	for _, at := range []int64{walFrameSize + 3, 9} {
		path, offsets := writeVisitorLog(t, 3)
		size := corruptLog(t, path, offsets[2]+at)
		expectCorruptAt(t, path, offsets[2], 2, size)
	}
}

// A damaged length is corruption at that record's offset, in the middle of
// the log and in its last record alike: read as a length, it would make
// the record look cut short and truncate every record after it.
func TestReplayDamagedLength(t *testing.T) {
	for _, tc := range []struct{ record, bit int }{{2, 0}, {2, 5}, {2, 30}, {4, 3}} {
		path, offsets := writeVisitorLog(t, 5)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[offsets[tc.record]+int64(tc.bit/8)] ^= 1 << (tc.bit % 8)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectCorruptAt(t, path, offsets[tc.record], tc.record, int64(len(data)))
	}
}

// Truncating the log at any byte — inside the header included, the torn
// tail a crash can leave — must recover exactly the records that end at or
// before the cut, with no error: a prefix-consistent store.
func TestReplayTornTailPrefixProperty(t *testing.T) {
	const records = 12
	path, offsets := writeVisitorLog(t, records)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := range offsets {
			end := int64(len(full))
			if i+1 < len(offsets) {
				end = offsets[i+1]
			}
			if end <= cut {
				want++
			}
		}
		got, rerr := replayAll(t, path)
		if rerr != nil {
			t.Fatalf("cut at %d: Replay error %v", cut, rerr)
		}
		if len(got) != want {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(got), want)
		}
		for j, rec := range got {
			if rec.Visitor == nil || rec.Visitor.OID != core.OID(fmt.Sprintf("o%d", j)) {
				t.Fatalf("cut at %d: record %d = %+v, want o%d", cut, j, rec, j)
			}
		}
		// The recovery must have healed the tail (completed a cut header,
		// truncated a cut record): appending and replaying again yields the
		// same prefix plus the new record — not a record glued onto a
		// fragment.
		w2, err := OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.Replay(func(WALRecord) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := w2.Append(WALRecord{Op: WALPut, Visitor: &VisitorRecord{OID: "sentinel"}}); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		again, rerr := replayAll(t, path)
		if rerr != nil {
			t.Fatalf("cut at %d: replay after post-recovery append: %v", cut, rerr)
		}
		if len(again) != want+1 || again[want].Visitor == nil || again[want].Visitor.OID != "sentinel" {
			t.Fatalf("cut at %d: post-recovery append corrupted the log: %d records", cut, len(again))
		}
	}
}

// Records larger than the old 4 MiB scanner cap must replay; a single big
// batch would otherwise abort the whole recovery with ErrTooLong.
func TestReplayLargeRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	// A sighting batch comfortably past 4 MiB when encoded.
	batch := make([]core.Sighting, 100_000)
	for i := range batch {
		batch[i] = core.Sighting{OID: core.OID(fmt.Sprintf("obj-%06d", i)), Pos: geo.Pt(float64(i), 1)}
	}
	if err := w.Append(WALRecord{Op: WALSightingBatch, Sightings: batch}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(WALRecord{Op: WALSightingRemove, OID: "obj-000001"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() < 4*1024*1024 {
		t.Fatalf("log size %v, want > 4 MiB to exercise the cap", st.Size())
	}
	got, rerr := replayAll(t, path)
	if rerr != nil {
		t.Fatalf("Replay: %v", rerr)
	}
	if len(got) != 2 || len(got[0].Sightings) != len(batch) || got[1].OID != "obj-000001" {
		t.Fatalf("replayed %d records (first batch %d sightings)", len(got), len(got[0].Sightings))
	}
}

// A crash between Compact's temp-file write and the rename leaves a stray
// temporary next to the log; recovery must keep the original log
// authoritative and never read the temporary.
func TestCompactCrashBeforeRenameKeepsOriginal(t *testing.T) {
	path, _ := writeVisitorLog(t, 4)
	// The "crashed compaction": a fully written, never-renamed temp file
	// with different (older) contents.
	stray := filepath.Join(filepath.Dir(path), ".wal-compact-12345")
	if err := os.WriteFile(stray, []byte(`{"op":"put","visitor":{"oid":"ghost"}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, rerr := replayAll(t, path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want the original 4", len(got))
	}
	for _, rec := range got {
		if rec.Visitor.OID == "ghost" {
			t.Fatal("recovery read the abandoned compaction temporary")
		}
	}
}

// TestOpenFileWALSweepsRewriteTemps: a crash inside CompactRecords leaves a
// temporary named after its log. Opening that log removes it; a
// neighbouring log's temporary in the same directory and the log's own
// bytes are left as they were.
func TestOpenFileWALSweepsRewriteTemps(t *testing.T) {
	path, _ := writeVisitorLog(t, 3)
	dir := filepath.Dir(path)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	own := filepath.Join(dir, ".log.wal.rewrite-123")
	neighbour := filepath.Join(dir, ".other.wal.rewrite-456")
	for _, p := range []string{own, neighbour} {
		if err := os.WriteFile(p, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, rerr := replayAll(t, path)
	if rerr != nil || len(got) != 3 {
		t.Fatalf("replayed %d records (%v), want 3", len(got), rerr)
	}
	if _, err := os.Stat(own); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the log's own rewrite temporary survived the open: %v", err)
	}
	if _, err := os.Stat(neighbour); err != nil {
		t.Errorf("a neighbouring log's rewrite temporary was touched: %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, want) {
		t.Errorf("the log changed on open (%v)", err)
	}
}

// Any Compact failure before the rename must leave the original log open
// and usable: later Appends and Close must succeed and the appended record
// must be durable.
func TestCompactFailureLeavesWALUsable(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "wals")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(sub, "log.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(WALRecord{Op: WALPut, Visitor: &VisitorRecord{OID: "a"}}); err != nil {
		t.Fatal(err)
	}
	// Force CreateTemp (and any rename) to fail: replace the directory
	// with a plain file. The already-open log handle stays valid.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(sub); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sub, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if cerr := w.CompactRecords([]WALRecord{{Op: WALPut, Visitor: &VisitorRecord{OID: "a"}}}); cerr == nil {
		t.Fatal("Compact succeeded without its directory")
	}
	// The failure path must not have closed the log out from under us.
	if err := w.Append(WALRecord{Op: WALPut, Visitor: &VisitorRecord{OID: "b"}}); err != nil {
		t.Fatalf("Append after failed Compact: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close after failed Compact: %v", err)
	}
}

// Reopening a sharded log with a different shard count adopts the count
// persisted in the log once any segment holds history (the id→segment
// mapping is a property of the persistent log) — while all-empty segments,
// as left by a crashed first open or an idle run, must not pin the count.
func TestShardedWALShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenShardedWAL(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRemove(2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = OpenShardedWAL(dir, 8)
	if err != nil {
		t.Fatalf("reopening a 4-segment log with history with 8 shards: %v", err)
	}
	if w.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want the persisted 4 (the log remembers its layout)", w.NumShards())
	}
	w.Close()
	w, err = OpenShardedWAL(dir, 4)
	if err != nil {
		t.Fatalf("reopening with matching count: %v", err)
	}
	w.Close()

	// Negative counts are rejected by the central validation.
	if _, err := OpenShardedWAL(t.TempDir(), -3); err == nil {
		t.Fatal("negative shard count accepted")
	}

	// Empty segments adopt the requested count instead.
	empty := t.TempDir()
	w, err = OpenShardedWAL(empty, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = OpenShardedWAL(empty, 2)
	if err != nil {
		t.Fatalf("reopening all-empty segments with a new count: %v", err)
	}
	if w.NumShards() != 2 {
		t.Fatalf("NumShards = %d", w.NumShards())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segmentPath(empty, 2)); err == nil {
		t.Fatal("stale empty segment survived the count change")
	}
}

// TestOpenShardedWALRefusesEpochLayout: a directory holding a segment of the
// epoch layout earlier builds' re-partition wrote (shard-NNNN-eNNNNNN.wal),
// or a segment in the JSON lines earlier builds wrote, is refused with the
// file named, and so is a lone JSON-lines log; nothing is deleted, created
// or rewritten — neither the refused file, nor a valid segment beside it,
// nor a rewrite temporary or a segment after a gap an ordinary open would
// sweep.
func TestOpenShardedWALRefusesEpochLayout(t *testing.T) {
	const epochName = "shard-0001-e000002.wal"
	jsonRemove := func(id string) []byte { return []byte(`{"op":"sremove","oid":"` + id + `"}` + "\n") }
	binRemove := func(id string) []byte { return logFile(t, WALRecord{Op: WALSightingRemove, OID: core.OID(id)}) }
	epochBody := append([]byte(`{"op":"epoch","epoch":2,"shards":3}`+"\n"), jsonRemove("a")...)
	sharded := func(dir string) error {
		w, err := OpenShardedWAL(dir, 2)
		if err == nil {
			w.Close()
		}
		return err
	}
	for _, tc := range []struct {
		name    string
		files   map[string][]byte
		refused string
		open    func(dir string) error
	}{
		{"alone", map[string][]byte{epochName: epochBody}, epochName, sharded},
		{"beside segments", map[string][]byte{epochName: epochBody, "shard-0000.wal": binRemove("b"), "shard-0001.wal": binRemove("c")}, epochName, sharded},
		{"beside a rewrite temporary", map[string][]byte{epochName: epochBody, ".shard-0000.wal.rewrite-123": binRemove("d")}, epochName, sharded},
		{"JSON-lines segments", map[string][]byte{
			"shard-0000.wal": jsonRemove("e"), "shard-0001.wal": jsonRemove("f"),
			".shard-0001.wal.rewrite-456": jsonRemove("g"), "shard-0003.wal": jsonRemove("h"),
		}, "shard-0000.wal", sharded},
		{"JSON-lines log", map[string][]byte{"visitors.wal": []byte(`{"op":"put","visitor":{"oid":"o1","regInfo":{"Registrant":"","DesAcc":0,"MinAcc":0,"MaxSpeed":0},"pathT":"0001-01-01T00:00:00Z"}}` + "\n")},
			"visitors.wal", func(dir string) error {
				w, err := OpenFileWAL(filepath.Join(dir, "visitors.wal"))
				if err == nil {
					w.Close()
				}
				return err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, body := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := tc.open(dir)
			if err == nil {
				t.Fatalf("opened a directory holding %s", tc.refused)
			}
			format := "epoch layout"
			if tc.refused != epochName {
				format = "JSON-lines format"
			}
			if !strings.Contains(err.Error(), filepath.Join(dir, tc.refused)) || !strings.Contains(err.Error(), format) {
				t.Errorf("error %q does not name %s and the %s", err, tc.refused, format)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(tc.files) {
				t.Errorf("directory holds %d files after the refusal, want %d", len(entries), len(tc.files))
			}
			for name, body := range tc.files {
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, body) {
					t.Errorf("%s after the refusal: %q, %v; want %q", name, got, err, body)
				}
			}
		})
	}
}

// sightingOracle mirrors the intended live set of a store.
type sightingOracle map[core.OID]core.Sighting

// expectRecovered compares a recovered store against the oracle on every
// query surface: Len, Get, a full-area range search and nearest-neighbor
// order.
func expectRecovered(t *testing.T, db *ShardedSightingDB, oracle sightingOracle) {
	t.Helper()
	if db.Len() != len(oracle) {
		t.Errorf("recovered Len = %d, oracle %d", db.Len(), len(oracle))
	}
	for id, want := range oracle {
		got, ok := db.Get(id)
		if !ok {
			t.Errorf("recovered store lost %s", id)
			continue
		}
		if got.Pos != want.Pos || !got.T.Equal(want.T) || got.SensAcc != want.SensAcc {
			t.Errorf("recovered %s = %+v, want %+v", id, got, want)
		}
	}
	// Range: everything inside the full area, no extras, positions intact.
	seen := map[core.OID]geo.Point{}
	db.SearchArea(geo.R(-1e9, -1e9, 1e9, 1e9), func(s core.Sighting) bool {
		seen[s.OID] = s.Pos
		return true
	})
	if len(seen) != len(oracle) {
		t.Errorf("range search found %d records, oracle %d", len(seen), len(oracle))
	}
	for id, pos := range seen {
		if want, ok := oracle[id]; !ok || want.Pos != pos {
			t.Errorf("range search saw %s at %v, oracle %+v (present %v)", id, pos, oracle[id], ok)
		}
	}
	// Nearest: distances must be non-decreasing and match the oracle's
	// sorted distance multiset.
	origin := geo.Pt(0, 0)
	var gotDists, wantDists []float64
	db.NearestFunc(origin, func(s core.Sighting, d float64) bool {
		gotDists = append(gotDists, d)
		return true
	})
	for _, s := range oracle {
		wantDists = append(wantDists, origin.Dist(s.Pos))
	}
	sort.Float64s(wantDists)
	if len(gotDists) != len(wantDists) {
		t.Fatalf("nearest enumerated %d records, oracle %d", len(gotDists), len(wantDists))
	}
	for i := range gotDists {
		if diff := gotDists[i] - wantDists[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("nearest distance %d = %v, oracle %v", i, gotDists[i], wantDists[i])
		}
	}
}

// The full put/remove/expire lifecycle must replay to exactly the oracle's
// state after a simulated crash (the WAL is never Closed — every append is
// flushed, as a killed process would leave it).
func TestShardedWALReplayEqualsOracle(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	now := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	ttl := time.Minute

	w, err := OpenShardedWAL(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	db := NewShardedSightingDB(WithSightingWAL(w), WithTTL(ttl), WithClock(clock))
	if db.NumShards() != shards {
		t.Fatalf("store did not adopt WAL shard count: %d", db.NumShards())
	}
	oracle := sightingOracle{}

	rng := rand.New(rand.NewSource(7))
	ids := make([]core.OID, 64)
	for i := range ids {
		ids[i] = core.OID(fmt.Sprintf("obj-%d", i))
	}
	for step := 0; step < 1500; step++ {
		id := ids[rng.Intn(len(ids))]
		switch op := rng.Intn(10); {
		case op < 6: // single put
			s := core.Sighting{OID: id, T: now, Pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000), SensAcc: 5}
			db.Put(s)
			oracle[id] = s
		case op < 8: // batch put (the pipeline's group-commit shape)
			batch := make([]core.Sighting, 1+rng.Intn(8))
			for i := range batch {
				bid := ids[rng.Intn(len(ids))]
				batch[i] = core.Sighting{OID: bid, T: now, Pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000), SensAcc: 5}
			}
			db.PutBatch(batch, nil)
			for _, s := range batch {
				oracle[s.OID] = s
			}
		case op < 9: // remove
			if removed(db, id) {
				delete(oracle, id)
			}
		default: // expire: age the record's lease out, then remove it
			if _, ok := oracle[id]; ok {
				now = now.Add(2 * ttl)
				if _, _, ok, _ := db.Deregister(id, true); !ok {
					t.Fatalf("step %d: %s did not expire", step, id)
				}
				delete(oracle, id)
				// Refresh every survivor so only id expired.
				for oid, s := range oracle {
					s.T = now
					db.Put(s)
					oracle[oid] = s
				}
			}
		}
	}
	if err := db.WALErr(); err != nil {
		t.Fatalf("WAL went down during the run: %v", err)
	}
	// The durability barrier: everything enqueued reaches the OS. The
	// "crash" below then models a killed process whose writes the OS kept.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Crash: no Close. Reopen the directory and recover.
	w2, err := OpenShardedWAL(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	db2 := NewShardedSightingDB(WithSightingWAL(w2), WithTTL(ttl), WithClock(clock))
	if err := db2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	expectRecovered(t, db2, oracle)

	// Recovered records carry a fresh lease: nothing is expired now, and
	// everything expires once the TTL passes un-refreshed.
	if ids := db2.Expired(); len(ids) != 0 {
		t.Errorf("%d records expired immediately after recovery", len(ids))
	}
	now = now.Add(2 * ttl)
	if got := len(db2.Expired()); got != len(oracle) {
		t.Errorf("after TTL: %d expired, want all %d", got, len(oracle))
	}
}

// The acceptance scenario: kill after N batched updates through the
// pipeline, recover in parallel, and compare every query surface against a
// never-crashed oracle store, with every shard's quadtree bulk-loaded
// through Rebuild.
func TestShardedWALCrashAfterBatchedUpdates(t *testing.T) {
	t.Run("quadtree", func(t *testing.T) {
		const shards = 8
		dir := t.TempDir()
		w, err := OpenShardedWAL(dir, shards)
		if err != nil {
			t.Fatal(err)
		}
		db := NewShardedSightingDB(WithSightingWAL(w))
		pipe := NewUpdatePipeline(db)
		oracle := sightingOracle{}
		rng := rand.New(rand.NewSource(9))
		now := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
		for i := 0; i < 4000; i++ {
			id := core.OID(fmt.Sprintf("obj-%d", rng.Intn(500)))
			s := core.Sighting{OID: id, T: now, Pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000), SensAcc: 5}
			pipe.Put(s)
			oracle[id] = s
		}
		if err := db.WALErr(); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		// Kill; recover from disk.
		w2, err := OpenShardedWAL(dir, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		db2 := NewShardedSightingDB(WithSightingWAL(w2))
		if err := db2.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		expectRecovered(t, db2, oracle)
	})
}

// Compaction shrinks segments to the live set, and a recover after
// compaction (plus further appends) still matches the oracle.
func TestShardedWALCompactThenRecover(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	w, err := OpenShardedWAL(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	db := NewShardedSightingDB(WithSightingWAL(w))
	oracle := sightingOracle{}
	now := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			id := core.OID(fmt.Sprintf("obj-%d", i))
			s := core.Sighting{OID: id, T: now, Pos: geo.Pt(float64(round), float64(i)), SensAcc: 5}
			db.Put(s)
			oracle[id] = s
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := dirSize(t, dir)
	compactAllShards(t, db)
	if sizeAfter := dirSize(t, dir); sizeAfter >= sizeBefore {
		t.Errorf("compaction did not shrink the log: %d -> %d", sizeBefore, sizeAfter)
	}
	// Post-compaction appends land after the snapshot.
	s := core.Sighting{OID: "late", T: now, Pos: geo.Pt(500, 500), SensAcc: 5}
	db.Put(s)
	oracle["late"] = s
	if removed(db, "obj-3") {
		delete(oracle, "obj-3")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenShardedWAL(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	db2 := NewShardedSightingDB(WithSightingWAL(w2))
	if err := db2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	expectRecovered(t, db2, oracle)
}

// Grow-triggered compaction rewrites only churned shards, and recovery on
// a churn-heavy log auto-compacts so the next restart replays the live set.
func TestCompactWALIfGrown(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	w, err := OpenShardedWAL(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	db := NewShardedSightingDB(WithSightingWAL(w))
	oracle := sightingOracle{}
	now := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	// Heavy churn on few objects: history >> live set. Half the rounds go
	// through PutBatch so the growth counter's batch-length accounting
	// (one batch record, len(batch) sightings) is exercised too.
	for round := 0; round < 600; round++ {
		batch := make([]core.Sighting, 0, 4)
		for i := 0; i < 4; i++ {
			id := core.OID(fmt.Sprintf("obj-%d", i))
			s := core.Sighting{OID: id, T: now, Pos: geo.Pt(float64(round), float64(i)), SensAcc: 5}
			if round%2 == 0 {
				db.Put(s)
			} else {
				batch = append(batch, s)
			}
			oracle[id] = s
		}
		db.PutBatch(batch, nil)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	before := dirSize(t, dir)
	if err := db.CompactWALIfGrown(); err != nil {
		t.Fatal(err)
	}
	after := dirSize(t, dir)
	if after >= before {
		t.Errorf("grown segments not compacted: %d -> %d", before, after)
	}
	for i := 0; i < shards; i++ {
		if n := w.AppendedSince(i); n != 0 {
			t.Errorf("shard %d appended counter = %d after compaction", i, n)
		}
	}
	// No further growth: a second call must be a no-op (sizes unchanged).
	if err := db.CompactWALIfGrown(); err != nil {
		t.Fatal(err)
	}
	if again := dirSize(t, dir); again != after {
		t.Errorf("idle compaction rewrote segments: %d -> %d", after, again)
	}
	// State must survive the compaction.
	w2, err := OpenShardedWAL(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	db2 := NewShardedSightingDB(WithSightingWAL(w2))
	if err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	expectRecovered(t, db2, oracle)
}

// Recover on a churn-heavy log compacts the segments as a side effect, so
// restart cost does not accumulate across crashes.
func TestRecoverAutoCompactsChurnedLog(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenShardedWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := NewShardedSightingDB(WithSightingWAL(w))
	for round := 0; round < 2000; round++ {
		db.Put(core.Sighting{OID: "only", Pos: geo.Pt(float64(round), 0), SensAcc: 5})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	before := dirSize(t, dir)
	w2, err := OpenShardedWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	db2 := NewShardedSightingDB(WithSightingWAL(w2))
	if err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	if after := dirSize(t, dir); after >= before/10 {
		t.Errorf("recovery did not compact the churned log: %d -> %d", before, after)
	}
	if got, ok := db2.Get("only"); !ok || got.Pos != geo.Pt(1999, 0) {
		t.Errorf("recovered record = %+v, %v", got, ok)
	}
}

// Low-stall compaction interleaved with live writers must lose nothing:
// records appended during a rewrite wait in the buffer and land after the
// snapshot, so recovery still equals the oracle. With WithSync the writers
// block on their commits while the rewrite holds the segment.
func TestCompactWALConcurrentWithAppends(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []FileWALOption
	}{{"async", nil}, {"sync", []FileWALOption{WithSync()}}} {
		t.Run(tc.name, func(t *testing.T) {
			testCompactConcurrentWithAppends(t, tc.opts...)
		})
	}
}

func testCompactConcurrentWithAppends(t *testing.T, opts ...FileWALOption) {
	const shards = 4
	dir := t.TempDir()
	w, err := OpenShardedWAL(dir, shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
	db := NewShardedSightingDB(WithSightingWAL(w))
	now := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	const writers = 4
	const perWriter = 2000
	var writerWG sync.WaitGroup
	stopCompact := make(chan struct{})
	compactorDone := make(chan struct{})
	go func() {
		defer close(compactorDone)
		for {
			select {
			case <-stopCompact:
				return
			default:
			}
			if err := db.CompactWALIfGrown(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				// Disjoint ids per writer; heavy per-id churn.
				id := core.OID(fmt.Sprintf("w%d-obj-%d", g, i%50))
				db.Put(core.Sighting{OID: id, T: now, Pos: geo.Pt(float64(i), float64(g)), SensAcc: 5})
			}
		}(g)
	}
	writerWG.Wait()
	close(stopCompact)
	select {
	case <-compactorDone:
	case <-time.After(30 * time.Second):
		t.Fatal("compactor did not stop")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Oracle: last put per id wins.
	oracle := sightingOracle{}
	for g := 0; g < writers; g++ {
		for i := perWriter - 50; i < perWriter; i++ {
			id := core.OID(fmt.Sprintf("w%d-obj-%d", g, i%50))
			oracle[id] = core.Sighting{OID: id, T: now, Pos: geo.Pt(float64(i), float64(g)), SensAcc: 5}
		}
	}
	w2, err := OpenShardedWAL(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	db2 := NewShardedSightingDB(WithSightingWAL(w2))
	if err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	expectRecovered(t, db2, oracle)
}

// Recover must refuse to run over live records rather than double-load.
func TestRecoverRequiresEmptyStore(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenShardedWAL(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	db := NewShardedSightingDB(WithSightingWAL(w))
	db.Put(core.Sighting{OID: "a", Pos: geo.Pt(1, 1)})
	if err := db.Recover(); err == nil {
		t.Fatal("Recover over a non-empty store succeeded")
	}
}

// A corrupted middle record in one shard fails that shard's recovery (with
// the offset surfaced) while the other shards still replay, and leaves the
// segment as it was. A tiered store (a flush, then a tail) fails the same
// way instead of serving its runs' older versions without the tail.
func TestRecoverSurfacesShardCorruption(t *testing.T) {
	const shards = 2
	for _, tiered := range []bool{false, true} {
		name := "untiered"
		if tiered {
			name = "tiered"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var opts []SightingDBOption
			if tiered {
				populateTiered(t, dir, shards, 200)
				opts = append(opts, WithTiering(TierConfig{MemtableBytes: 1, MaxRuns: 3}))
			} else {
				w, err := OpenShardedWAL(dir, shards)
				if err != nil {
					t.Fatal(err)
				}
				db := NewShardedSightingDB(WithSightingWAL(w))
				for i := 0; i < 40; i++ {
					db.Put(core.Sighting{OID: core.OID(fmt.Sprintf("obj-%d", i)), Pos: geo.Pt(float64(i), 0)})
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			// Corrupt the middle of shard 0's segment.
			seg := segmentPath(dir, 0)
			st, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() < 4*int64(len(walHeader)) {
				t.Fatalf("shard 0's segment holds %d bytes, too few to damage mid-log", st.Size())
			}
			corruptLog(t, seg, st.Size()/2)
			damaged, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			w2, err := OpenShardedWAL(dir, shards)
			if err != nil {
				t.Fatal(err)
			}
			db2 := NewShardedSightingDB(append(opts, WithSightingWAL(w2))...)
			rerr := db2.Recover()
			if !errors.Is(rerr, ErrCorruptWAL) {
				t.Fatalf("Recover error = %v, want ErrCorruptWAL", rerr)
			}
			if st := db2.TierStats(); st.Runs != 0 {
				t.Fatalf("the failed Recover kept %d runs open", st.Runs)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			after, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, damaged) {
				t.Fatalf("a failed Recover rewrote the damaged segment: %d bytes, was %d", len(after), len(damaged))
			}
		})
	}
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// compactAllShards rewrites every segment of db's WAL to its shard's live
// set, one shard after another, the way the janitor's grow-triggered pass
// rewrites the shards that grew.
func compactAllShards(t *testing.T, db *ShardedSightingDB) {
	t.Helper()
	for i := 0; i < db.NumShards(); i++ {
		if err := db.compactShard(i); err != nil {
			t.Fatalf("compacting shard %d: %v", i, err)
		}
	}
}
